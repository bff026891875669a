import json
import random
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from importlib import resources

from valsem.cli import _certificate_json
from valsem.errors import CapExceeded, UsageError
from valsem.exact import Dyadic, QuadReal, format_scalar
from valsem.gensemi import DEFAULT_STATE_CAP, GenSemigroup
from valsem.genseq import SeqFamily, ValuationDef, eta
from valsem.wild import (
    TILDE_CROSS_CHECK_MAX_INDEX,
    Certificate,
    CertRow,
    WildParams,
    _scaled_semigroup,
    block_index,
    make_wild_valuation,
    parse_bound,
    wild_certificate,
)

NEG_SQ = lambda n: -(n**2)
POS_SQ = lambda n: n**2

# quotes, backslashes, control characters and non-ASCII text, lone
# surrogates included
TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001d11e'),
                         st.characters(exclude_categories=())), max_size=8)

ROW = st.builds(CertRow, n=st.integers(), i=st.integers(), chain=TEXT, lam=TEXT,
                 witness=TEXT, lhs=TEXT, rhs=TEXT, ok=st.booleans(),
                 tilde_second=st.one_of(st.none(), TEXT))

PARAM_GRID = [
    WildParams(),
    WildParams(a=Dyadic(3, 1), c=2),
    WildParams(a=Dyadic(5, 2), c=3),
]


def build(kind, params, N=512):
    v = make_wild_valuation(kind, f=NEG_SQ, g=POS_SQ, N=N, params=params)
    return wild_certificate(v, params, f=NEG_SQ, g=POS_SQ, N=N)


def reference_rows(kind, vdef, params, f=None, g=None, N=4096, tilde_cap=DEFAULT_STATE_CAP):
    """The certificate rows as a per-row loop: every row recomputes its
    block's witness value, member second coordinate and strings, and the
    scaled generators are listed by hand rather than mapped from
    ValuationDef.generators.  The tilde search runs once per (chain,
    block), at the first row that passes the member check."""
    a1, a2, c = params.a, params.a2, params.c
    e = a1.ceil() if kind != "both" else max(a1.ceil(), QuadReal(0, a2).ceil())
    fams = vdef.families()

    def scale(fam):  # a on the rational part, a2 on the sqrt2 part
        return vdef.embed(fam, (a1, a2)[fams.index(fam)])

    gens = [vdef.group.vec(0, c)]
    for fam in fams:
        for i in range(min(4, fam.max_index) + 1):
            gens.append(vdef.group.vec(scale(fam) * eta(i), c * fam.second(i)))
    semigroup = GenSemigroup(vdef.group, gens)
    chains = []
    if kind in ("decreasing", "both"):
        chains.append(("P", vdef.p, f, "lt"))
    if kind in ("increasing", "both"):
        chains.append(("Q", vdef.q, g, "gt"))
    memo, rows = {}, []
    for n in range(e << (e + 2), N + 1):
        i = (n // e).bit_length() - 3
        for chain, fam, bound_fn, sense in chains:
            lam = scale(fam) * eta(i)
            member_second = c * fam.second(i)
            bound = bound_fn(n)
            if sense == "lt":
                ok = lam < n and member_second < bound
            else:
                ok = lam < n and member_second > bound
            tilde_second = None
            if ok and i <= 4:
                if (chain, i) not in memo:
                    entry = semigroup.tilde(lam, cap=tilde_cap)
                    memo[chain, i] = None if entry is None else entry.tilde.coords[1]
                t2 = memo[chain, i]
                if t2 is None:
                    ok = False
                else:
                    tilde_second = format_scalar(t2)
                    if sense == "lt":
                        ok = t2 <= member_second and t2 < bound
                    else:
                        ok = t2 > bound
            rows.append(CertRow(n, i, chain, format_scalar(lam), fam.name(i),
                                format_scalar(member_second), str(bound), ok, tilde_second))
    return rows


def oracle_dict(cert):
    """The certificate's JSON payload as a dict, key by key."""
    return {
        "kind": cert.kind,
        "valuation": cert.valuation,
        "params": cert.params,
        "header": cert.header,
        "rows": [
            {
                "n": r.n,
                "i": r.i,
                "chain": r.chain,
                "lambda": r.lam,
                "witness": r.witness,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "ok": r.ok,
                **({"tilde_second": r.tilde_second} if r.tilde_second else {}),
            }
            for r in cert.rows
        ],
        "valid": cert.valid,
    }


def crushed(kind, N=512):
    """The kind's valuation with its weight at index 2 crushed to 1, so
    the chain misses the bound from block 2 on."""
    v = make_wild_valuation(kind, f=NEG_SQ, g=POS_SQ, N=N)
    fam = v.families()[0]
    bad = SeqFamily(fam.kind, [1 if i == 2 else w for i, w in enumerate(fam.weights, start=1)])
    return ValuationDef(**{fam.kind.lower(): bad})


class TestParams:
    def test_validation(self):
        with pytest.raises(UsageError):
            WildParams(a=0)
        with pytest.raises(UsageError):
            WildParams(a=-1)
        with pytest.raises(UsageError):
            WildParams(c=0)
        for c in (2.5, Fraction(5, 2), 2.0):
            with pytest.raises(UsageError, match="positive integer"):
                WildParams(c=c)
        with pytest.raises(UsageError):
            WildParams(a2=Dyadic(-1, 1))
        p = WildParams(a=Dyadic(3, 1))
        assert p.a == Dyadic(3, 1)
        assert p.a2 == Dyadic(3, 1)  # defaults to a
        assert isinstance(WildParams(a=2).a, Dyadic)  # coerced once, when built


class TestIndices:
    def test_block_index_brackets_n(self):
        # the block of N is the last index the weights must reach
        assert block_index(1, 8) == 1
        assert block_index(1, 4096) == 10
        assert block_index(2, 4096) == 9
        for e in (1, 2, 3):
            for n in range(e << 3, 600):
                i = block_index(e, n)
                assert e << (i + 2) <= n < e << (i + 3)


class TestCertificates:
    @pytest.mark.parametrize("kind", ["decreasing", "increasing", "both"])
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_valid_over_range(self, kind, params):
        cert = build(kind, params)
        assert cert.kind == kind
        assert cert.valid
        assert cert.first_bad is None
        # rows cover every n in [n0, N], once per chain
        per_n = 2 if kind == "both" else 1
        ns = sorted({r.n for r in cert.rows})
        assert ns == list(range(ns[0], 513))
        assert len(cert.rows) == per_n * len(ns)

    def test_tilde_cross_check_present(self):
        cert = build("decreasing", WildParams())
        low = [r for r in cert.rows if r.i <= 4]
        assert low and all(r.tilde_second is not None for r in low)
        high = [r for r in cert.rows if r.i > 4]
        assert high and all(r.tilde_second is None for r in high)

    def test_negative_control(self):
        params = WildParams()
        # crush one weight down to 1: gamma stops decreasing fast enough
        vbad = crushed("decreasing")
        assert vbad.p.second(2) >= NEG_SQ(2 << 5)
        cert = wild_certificate(vbad, params, f=NEG_SQ, N=512)
        assert not cert.valid
        row = cert.first_bad
        assert row is not None and row.i == 2
        assert row is next(r for r in cert.rows if not r.ok)

    @staticmethod
    def check_stored_verdict(cert):
        # first_bad is set once, when the rows are complete; valid reads it
        assert cert.first_bad is next((r for r in cert.rows if not r.ok), None)
        assert cert.valid == all(r.ok for r in cert.rows)

    @pytest.mark.parametrize("kind", ["decreasing", "increasing", "both"])
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_stored_verdict_matches_rows(self, kind, params):
        self.check_stored_verdict(build(kind, params))

    @pytest.mark.parametrize("kind", ["decreasing", "increasing"])
    def test_stored_verdict_of_negative_controls(self, kind):
        cert = wild_certificate(crushed(kind), WildParams(), f=NEG_SQ, g=POS_SQ, N=512)
        assert not cert.valid
        self.check_stored_verdict(cert)

    def test_increasing_negative_control(self):
        cert = wild_certificate(crushed("increasing"), WildParams(), g=POS_SQ, N=512)
        assert not cert.valid

    @pytest.mark.parametrize("kind", ["decreasing", "increasing", "both"])
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_rows_match_reference(self, kind, params):
        v = make_wild_valuation(kind, f=NEG_SQ, g=POS_SQ, N=512, params=params)
        cert = wild_certificate(v, params, f=NEG_SQ, g=POS_SQ, N=512)
        ref = reference_rows(kind, v, params, f=NEG_SQ, g=POS_SQ, N=512)
        assert [astuple(r) for r in cert.rows] == [astuple(r) for r in ref]

    @pytest.mark.parametrize("params", [WildParams(a=Dyadic(5, 2), a2=Dyadic(3, 1), c=2),
                                        WildParams(a=2, a2=Dyadic(1, 1))])
    def test_both_rows_match_reference_with_a2(self, params):
        # a and a2 differ, so each scales its own part of the first coordinate
        v = make_wild_valuation("both", f=NEG_SQ, g=POS_SQ, N=1024, params=params)
        cert = wild_certificate(v, params, f=NEG_SQ, g=POS_SQ, N=1024)
        ref = reference_rows("both", v, params, f=NEG_SQ, g=POS_SQ, N=1024)
        assert [astuple(r) for r in cert.rows] == [astuple(r) for r in ref]

    @pytest.mark.parametrize("kind", ["decreasing", "increasing"])
    def test_negative_control_rows_match_reference(self, kind):
        vbad, params = crushed(kind), WildParams()
        cert = wild_certificate(vbad, params, f=NEG_SQ, g=POS_SQ, N=512)
        ref = reference_rows(kind, vbad, params, f=NEG_SQ, g=POS_SQ, N=512)
        assert [astuple(r) for r in cert.rows] == [astuple(r) for r in ref]
        assert not cert.valid

    def test_tilde_cap_trips_as_in_reference(self):
        v, params = make_wild_valuation("both", f=NEG_SQ, g=POS_SQ, N=256), WildParams()
        for cap in (1, 3):
            with pytest.raises(CapExceeded) as new:
                wild_certificate(v, params, f=NEG_SQ, g=POS_SQ, N=256, tilde_cap=cap)
            with pytest.raises(CapExceeded) as ref:
                reference_rows("both", v, params, f=NEG_SQ, g=POS_SQ, N=256, tilde_cap=cap)
            assert str(new.value) == str(ref.value)

    def test_range_validation(self):
        v = make_wild_valuation("decreasing", f=NEG_SQ, N=512)
        with pytest.raises(UsageError):
            wild_certificate(v, WildParams(), f=NEG_SQ, N=4)
        # the range [n0, N] is checked in both places: n0 = 8, then 32 for a = 2
        for N, params in ((7, WildParams()), (20, WildParams(a=2)), (31, WildParams(a=2))):
            with pytest.raises(UsageError, match=r"range \[\d+, \d+\] is empty"):
                make_wild_valuation("decreasing", f=NEG_SQ, N=N, params=params)
            with pytest.raises(UsageError, match=r"range \[\d+, \d+\] is empty"):
                wild_certificate(v, params, f=NEG_SQ, N=N)
        # at N = n0 the weights reach the first block, i = e
        v = make_wild_valuation("decreasing", f=NEG_SQ, N=32, params=WildParams(a=2))
        assert v.p.max_index == 2
        with pytest.raises(UsageError):
            make_wild_valuation("sideways", f=NEG_SQ)
        with pytest.raises(UsageError):
            wild_certificate(v, WildParams())  # missing f

    def test_weight_exhaustion_named(self):
        v = make_wild_valuation("decreasing", f=NEG_SQ, N=64)
        with pytest.raises(UsageError, match="index"):
            wild_certificate(v, WildParams(), f=NEG_SQ, N=4096)


class TestCrossCheckValue:
    def test_tilde_of_a_member_is_its_own_value(self):
        """The tilde value the cross-check reads is the member's own value.

        eta_i = (4^(i+1) - 1)/(3*2^i) has an odd numerator, so its
        denominator is exactly 2^i, and eta increases with i.  A sum of
        generators with first coordinate eta_i in one family's part thus
        uses only the root and members up to i: one M_i alone, or roots
        and lower members, whose first coordinates all have denominators
        dividing 2^(i-1) and so miss eta_i.  In C5 the rational and sqrt2
        parts do not mix, and omega scales each part by its own factor,
        so the same holds after scaling.  z adds only to the second
        coordinate.  Hence tilde(lambda) = omega(nu(M_i)) for every member
        of the cross-check.
        """
        rng = random.Random(11)
        dyadic = lambda: Dyadic(rng.randint(1, 12), rng.randint(0, 3))
        checked = 0
        for _ in range(40):
            sigma = [rng.randint(0, 9) for _ in range(rng.randint(1, 6))]
            tau = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
            params = WildParams(a=dyadic(), a2=dyadic(), c=rng.randint(1, 4))
            for v in (ValuationDef.p3(sigma), ValuationDef.q3(tau),
                      ValuationDef.combined(sigma, tau)):
                sg = _scaled_semigroup(v, params)
                for fam in v.families():
                    for i in range(min(TILDE_CROSS_CHECK_MAX_INDEX, fam.max_index) + 1):
                        lam, lhs = params.omega(v.gen_value(fam, i)).coords
                        entry = sg.tilde(lam)
                        assert entry is not None and entry.tilde.second == lhs
                        checked += 1
        assert checked > 500


class TestJson:
    def test_schema(self):
        schema = json.loads(
            resources.files("valsem.schemas").joinpath("certificate.json").read_text()
        )
        for kind in ("decreasing", "both"):
            cert = build(kind, WildParams(), N=64)
            payload = json.loads("".join(_certificate_json(cert)))
            jsonschema.validate(payload, schema)
            assert payload["valid"] is True
            assert payload == oracle_dict(cert)

    def test_row_fields(self):
        cert = build("both", WildParams(), N=64)
        row = oracle_dict(cert)["rows"][0]
        assert {"n", "i", "chain", "lambda", "witness", "lhs", "rhs", "ok"} <= set(row)

    @pytest.mark.parametrize("kind", ["decreasing", "increasing", "both"])
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_writer_matches_json_dumps(self, kind, params):
        cert = build(kind, params)
        assert "".join(_certificate_json(cert)) == json.dumps(oracle_dict(cert), indent=2)

    @given(
        st.builds(
            Certificate,
            kind=TEXT,
            valuation=st.dictionaries(TEXT, st.one_of(TEXT, st.lists(st.integers())), max_size=2),
            params=st.dictionaries(TEXT, st.one_of(TEXT, st.integers()), max_size=2),
            header=TEXT,
            rows=st.lists(ROW, max_size=3),
            # valid reads first_bad alone, so the writer sees both verdicts
            first_bad=st.one_of(st.none(), ROW),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_writer_escapes_like_json_dumps(self, cert):
        assert "".join(_certificate_json(cert)) == json.dumps(oracle_dict(cert), indent=2)

    def test_writer_yields_row_sized_pieces(self):
        # a writer that joins the whole text, or even all rows, fails here
        cert = build("both", WildParams(), N=4096)
        pieces = list(_certificate_json(cert))
        assert len(cert.rows) > 8000
        assert len(cert.rows) < len(pieces) <= 2 * len(cert.rows) + 2
        assert max(map(len, pieces)) < 1024


class TestParseBound:
    def test_named_forms(self):
        assert parse_bound("neg_linear")(7) == -7
        assert parse_bound("linear")(7) == 7
        assert parse_bound("neg_pow(2)")(5) == -25
        assert parse_bound("pow:3")(2) == 8
        assert parse_bound("pow(10)")(2) == 1024
        assert parse_bound("neg_pow:3")(2) == -8

    def test_table(self, tmp_path):
        p = tmp_path / "bounds.txt"
        p.write_text("# comment\n8 -100\n9 -120\n\n10 -150  # inline\n")
        fn = parse_bound(f"table:{p}")
        assert fn(9) == -120
        with pytest.raises(UsageError, match="n=11"):
            fn(11)

    @pytest.mark.parametrize(
        "descr", ["pow(2", "pow:2)", "pow(2)))", "pow(+3)", "pow( 2 )", "pow(1_0)", "pow:",
                  " linear", "neg_pow()", "neg_pow(0)", "pow(２)", "Pow(2)", "pow(2) "]
    )
    def test_malformed_rejected(self, descr):
        with pytest.raises(UsageError):
            parse_bound(descr)

    def test_errors(self, tmp_path):
        with pytest.raises(UsageError):
            parse_bound("mystery")
        with pytest.raises(UsageError):
            parse_bound("pow(x)")
        with pytest.raises(UsageError):
            parse_bound("pow(0)")
        with pytest.raises(UsageError):
            parse_bound("table:/nonexistent/file")
        bad = tmp_path / "bad.txt"
        bad.write_text("8 notanint\n")
        with pytest.raises(UsageError):
            parse_bound(f"table:{bad}")
