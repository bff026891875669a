import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valsem import genseq
from valsem.errors import UsageError
from valsem.exact import DYADIC2, QUAD2, Dyadic, LexVec, QuadReal
from valsem.genseq import (
    ExpTerm,
    SeqFamily,
    ValuationDef,
    check_key_identity,
    choose_weights,
    eta,
    expand,
    reconstruct,
    term_value,
    valuate,
)
from valsem.poly import LaurentZ, MPoly, format_poly, parse_poly

from conftest import random_poly

SIGMA = [2, 5]
SIGMA_LONG = [2, 5, 3, 7, 4, 9]


def second_oracle(kind, weights):
    """Recompute gamma/delta directly with Fractions."""
    vals = [Fraction(0)]
    for w in weights:
        prev = vals[-1]
        vals.append((prev - w) / 2 if kind == "P" else (prev + w) / 2)
    return vals


class TestWeights:
    def test_eta_values(self):
        assert [eta(i) for i in range(4)] == [
            Dyadic(1),
            Dyadic(5, 1),
            Dyadic(21, 2),
            Dyadic(85, 3),
        ]

    def test_eta_recursion_vs_closed_form(self):
        # eta is filled from the closed form (1/3)(2^(i+2) - 1/2^i); the
        # recursion eta_i = 2*eta_(i-1) + 1/2^i is the oracle
        for i in range(65):
            assert eta(i).as_fraction() == Fraction(2 ** (i + 2) - Fraction(1, 2**i), 3)
            if i:
                assert eta(i) == 2 * eta(i - 1) + Dyadic(1, i)

    def test_eta_negative_index(self):
        with pytest.raises(UsageError, match="nonnegative"):
            eta(-1)
        for i in (1.5, Fraction(3, 2), 2.0):
            with pytest.raises(UsageError, match="not an integer"):
                eta(i)

    def test_gamma_delta_examples(self):
        p = SeqFamily("P", SIGMA)
        assert [p.second(i) for i in range(3)] == [Dyadic(0), Dyadic(-1), Dyadic(-3)]
        q = SeqFamily("Q", [2, 6])
        assert [q.second(i) for i in range(3)] == [Dyadic(0), Dyadic(1), Dyadic(7, 1)]

    def test_second_matches_fraction_oracle(self):
        rng = random.Random(2)
        for kind in ("P", "Q"):
            ws = [rng.randint(1, 40) for _ in range(10)]
            fam = SeqFamily(kind, ws)
            oracle = second_oracle(kind, ws)
            for i in range(11):
                assert fam.second(i).as_fraction() == oracle[i]
            with pytest.raises(UsageError, match="weight at index 11 is not defined"):
                fam.second(fam.max_index + 1)
            with pytest.raises(UsageError, match="nonnegative"):
                fam.second(-1)

    def test_weight_validation(self):
        with pytest.raises(UsageError):
            SeqFamily("Q", [0])  # tau must be >= 1
        with pytest.raises(UsageError):
            SeqFamily("P", [-1])
        SeqFamily("P", [0])  # sigma 0 is legal
        for weights in ([2.5, 5], [Fraction(5, 2), 5], [2, 5.0]):
            with pytest.raises(UsageError, match="is not an integer"):
                SeqFamily("P", weights)
            with pytest.raises(UsageError, match="is not an integer"):
                ValuationDef.p3(weights)

    def test_missing_weight_named_in_error(self):
        fam = SeqFamily("P", SIGMA)
        with pytest.raises(UsageError, match="index 3"):
            fam.weight(3)


class TestValuationDef:
    def test_form_and_group_follow_the_families(self):
        for v, form, group in ((ValuationDef.p3(SIGMA), "P3", DYADIC2),
                               (ValuationDef.q3([1]), "Q3", DYADIC2),
                               (ValuationDef.combined(SIGMA, [1]), "C5", QUAD2)):
            assert (v.form, v.group) == (form, group)

    def test_family_validation(self):
        for p, q in ((None, None), (SeqFamily("Q", [1]), None), (None, SeqFamily("P", SIGMA)),
                     (SeqFamily("Q", [1]), SeqFamily("Q", [1]))):
            with pytest.raises(UsageError):
                ValuationDef(p, q)


class TestFamilies:
    def test_p2_p3_polynomials(self):
        fam = SeqFamily("P", SIGMA)
        assert fam.poly(2) == parse_poly("z^2*y^2 - x^5")
        assert fam.poly(3) == parse_poly("z^9*y^4 - 2*z^7*x^5*y^2 + z^5*x^10 - x^8*y")

    def test_q_recursion(self):
        fam = SeqFamily("Q", [3])
        # Q_2 = Q_1^2 - z^3 * u^4 * Q_0, and Q_0 = u
        assert fam.poly(2) == parse_poly("v^2 - z^3*u^5")

    def test_root_members(self):
        p = SeqFamily("P", SIGMA)
        q = SeqFamily("Q", [1])
        assert p.poly(0) == parse_poly("x") and p.poly(1) == parse_poly("y")
        assert q.poly(0) == parse_poly("u") and q.poly(1) == parse_poly("v")


class TestExpansion:
    def test_y_squared_example(self):
        v = ValuationDef.p3(SIGMA)
        terms = expand(v, parse_poly("y^2"))
        assert len(terms) == 2
        by_alpha = {t.alpha: t.coeff for t in terms}
        # y^2 = z^-2 * P_2 + z^-2 * x^5
        assert by_alpha[(0, 0, 1)] == LaurentZ.term(1, -2)
        assert by_alpha[(5,)] == LaurentZ.term(1, -2)

    def test_exponent_shape(self):
        rng = random.Random(17)
        v = ValuationDef.p3(SIGMA_LONG)
        for _ in range(100):
            f = random_poly(rng, ("x", "y"), max_terms=6, max_deg=7)
            for t in expand(v, f):
                assert all(e in (0, 1) for e in t.alpha[1:])
                assert t.alpha[0] >= 0

    def test_round_trip(self):
        rng = random.Random(23)
        v = ValuationDef.combined(SIGMA_LONG, [1, 3, 5, 2, 6, 4])
        for _ in range(100):
            f = random_poly(rng, ("x", "y", "u", "v"), max_terms=5, max_deg=4)
            terms = expand(v, f)
            assert reconstruct(v, terms) == f
            assert expand(v, reconstruct(v, terms)) == terms

    def test_zero_and_bad_vars_rejected(self):
        v = ValuationDef.p3(SIGMA)
        with pytest.raises(UsageError):
            expand(v, MPoly.zero())
        with pytest.raises(UsageError):
            expand(v, parse_poly("u"))


class TestValuation:
    def test_worked_examples(self):
        v = ValuationDef.p3(SIGMA)
        g = v.group
        assert valuate(v, parse_poly("y^2")).value == g.vec(5, -2)
        assert valuate(v, parse_poly("x")).value == g.vec(1, 0)
        assert valuate(v, parse_poly("y")).value == g.vec(Dyadic(5, 1), -1)
        assert valuate(v, parse_poly("z^3")).value == g.vec(0, 3)

    def test_member_values(self):
        v = ValuationDef.p3(SIGMA_LONG)
        for i in range(4):
            res = valuate(v, v.p.poly(i))
            assert res.value == v.gen_value(v.p, i)

    def test_witness_is_minimizer(self):
        v = ValuationDef.p3(SIGMA)
        res = valuate(v, parse_poly("y^2"))
        assert res.witness.alpha == (5,)
        others = [term_value(v, t) for t in res.expansion if t is not res.witness]
        assert all(res.value < w for w in others)

    def test_combined_form_values(self):
        v = ValuationDef.combined([2, 5], [1, 3])
        g = v.group
        assert valuate(v, parse_poly("x")).value == g.vec(QuadReal(1, 0), 0)
        assert valuate(v, parse_poly("u")).value == g.vec(QuadReal(0, 1), 0)
        # delta_1 = (0 + tau(1)) / 2 = 1/2
        assert valuate(v, parse_poly("v")).value == g.vec(
            QuadReal(0, Dyadic(5, 1)), Dyadic(1, 1)
        )
        # sqrt2 coordinate never collides with the rational one
        assert valuate(v, parse_poly("x*u")).value == g.vec(QuadReal(1, 1), 0)

    def test_homomorphism_sample(self):
        rng = random.Random(31)
        v = ValuationDef.combined(SIGMA_LONG, [1, 3, 5, 2, 6, 4])
        for _ in range(40):
            f = random_poly(rng, ("x", "y", "u", "v"), max_terms=3, max_deg=3)
            g = random_poly(rng, ("x", "y", "u", "v"), max_terms=3, max_deg=3)
            assert valuate(v, f * g).value == valuate(v, f).value + valuate(v, g).value

    def test_ultrametric(self):
        rng = random.Random(37)
        v = ValuationDef.p3(SIGMA_LONG)
        for _ in range(40):
            f = random_poly(rng, ("x", "y"), max_terms=3, max_deg=4)
            g = random_poly(rng, ("x", "y"), max_terms=3, max_deg=4)
            if (f + g).is_zero():
                continue
            vf, vg = valuate(v, f).value, valuate(v, g).value
            vs = valuate(v, f + g).value
            assert vs >= min(vf, vg)
            if vf != vg:
                assert vs == min(vf, vg)


def oracle_term_value(v, t):
    """term_value as a sum of Dyadics, one member at a time."""
    second = Dyadic(t.coeff.ord_z())
    parts = []
    for fam, exps in ((v.p, t.alpha), (v.q, t.beta)):
        if fam is None:
            continue
        part = Dyadic(0)
        for i, e in enumerate(exps):
            if e:
                part = part + e * eta(i)
                if i >= 1:
                    second = second + e * fam.second(i)
        parts.append(part)
    return LexVec(QuadReal(*parts) if v.group.quad else parts[0], second)


def check_against_oracle(v, f):
    """term_value equals the oracle on every term of f, and valuate
    returns the least oracle value with its unique argmin as witness."""
    terms = expand(v, f)
    values = [oracle_term_value(v, t) for t in terms]
    got = [term_value(v, t) for t in terms]
    assert got == values
    assert [str(x) for x in got] == [str(x) for x in values]
    low = min(values)
    assert values.count(low) == 1
    res = valuate(v, f)
    assert res.value == low and str(res.value) == str(low)
    assert res.witness == terms[values.index(low)]
    return values


C5 = ([2, 5, 3], [1, 3, 5])


class TestIntegerLattice:
    @given(st.sampled_from(["P3", "Q3", "C5"]), st.lists(st.integers(0, 12), min_size=1, max_size=4),
           st.lists(st.integers(1, 12), min_size=1, max_size=4), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_matches_dyadic_oracle(self, form, sigma, tau, seed):
        rng = random.Random(seed)
        if form == "P3":
            v, names = ValuationDef.p3(sigma), ("x", "y")
        elif form == "Q3":
            v, names = ValuationDef.q3(tau), ("u", "v")
        else:
            v, names = ValuationDef.combined(sigma, tau), ("x", "y", "u", "v")
        f = random_poly(rng, names, max_terms=5, max_deg=4)
        try:
            check_against_oracle(v, f)
        except UsageError as exc:
            # a member past the weights: the oracle and valuate fail alike
            assert "is not defined for this family" in str(exc)
            with pytest.raises(UsageError) as again:
                valuate(v, f)
            assert str(again.value) == str(exc)

    @pytest.mark.parametrize("text", [
        "x^3 + u^2",
        "x^7 + z^-1*u^5",
        "x^3*y + z^-1*u^2*v^3 - 2*x*u*v",
        "(x^2*y + z*u*v^3)*(y^3 - x*u^2)",
    ])
    def test_c5_opposite_sign_differences(self, text):
        v = ValuationDef.combined(*C5)
        values = check_against_oracle(v, parse_poly(text))
        # two terms whose first coordinates differ by p + q*sqrt2 with
        # p and q of opposite signs, where the sign needs p^2 against 2q^2
        diffs = [(a.first.rat.as_fraction() - b.first.rat.as_fraction(),
                  a.first.surd.as_fraction() - b.first.surd.as_fraction())
                 for a in values for b in values]
        assert any(p * q < 0 for p, q in diffs)

    def test_past_the_weights_rejected(self):
        v = ValuationDef.p3(SIGMA)
        (t,) = [t for t in expand(v, parse_poly("y^4")) if len(t.alpha) == 4]
        with pytest.raises(UsageError, match="weight at index 3 is not defined"):
            term_value(v, t)
        # zero exponents past the weights are no member at all
        assert term_value(v, ExpTerm(LaurentZ.term(1, 0), (1, 0, 0, 0))) == v.gen_value(v.p, 0)

    def test_warm_valuate_builds_no_dyadic_per_term(self, monkeypatch):
        v = ValuationDef.combined(*C5)
        f = parse_poly(
            "(x^3*y^2 + z*u*v^3 - 2*x*y^3*v + z^-2*u^2*v + y*v^2)"
            "*(y^3*v - x*u^2*y + 3*z*x^2*v^3 + u*y^2 + x*v)"
        )
        want = valuate(v, f)  # fills the family caches
        assert len(want.expansion) == 106
        calls = []
        init = Dyadic.__init__

        def counting_init(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(Dyadic, "__init__", counting_init)
        got = valuate(v, f)
        monkeypatch.undo()
        assert got.value == want.value
        # the answer's three coordinates, not a sum per term
        assert len(calls) <= 8


class TestKeyIdentities:
    def test_arithmetic_and_symbolic(self):
        v = ValuationDef.combined(SIGMA_LONG + [11], [1, 3, 5, 2, 6, 4, 8])
        for i in range(1, 6):
            assert check_key_identity(v, i)

    def test_negative_control_override(self, monkeypatch):
        fam = SeqFamily("P", SIGMA_LONG)
        fam._seconds[2] = 17 << 2  # s_2 = 17 in the integer table
        v = ValuationDef(p=fam)

        def no_valuate(*_):
            raise AssertionError("a polynomial was valued")

        # fails on the arithmetic check, before any polynomial is valued
        monkeypatch.setattr(genseq, "valuate", no_valuate)
        assert not check_key_identity(v, 2)

    def test_tables_need_no_dyadic_arithmetic(self, monkeypatch):
        # building the valuation and checking the arithmetic identities,
        # i > 6 included, run on the integer tables alone
        calls = []
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            def counting(self, other, _op=getattr(Dyadic, name), _name=name):
                calls.append(_name)
                return _op(self, other)

            monkeypatch.setattr(Dyadic, name, counting)
        v = ValuationDef.combined([2, 5, 3, 7, 4, 9, 1, 6, 8], [1, 3, 5, 2, 6, 4, 8, 7, 9])
        for i in range(1, 10):
            assert check_key_identity(v, i)
        assert calls == []
        assert Dyadic(1, 1) * 2 + 1 == 2 and calls == ["__mul__", "__add__"]

    def test_index_validation(self):
        v = ValuationDef.p3(SIGMA)
        with pytest.raises(UsageError):
            check_key_identity(v, 0)


class TestChooseWeights:
    def test_worked_example(self):
        w = choose_weights("P", lambda n: -n, 3)
        assert w[0] == 34
        fam = SeqFamily("P", w)
        assert fam.second(1) == Dyadic(-17)

    @staticmethod
    def check_minimal(kind, bound, beyond):
        w = choose_weights(kind, bound, 6)
        fam = SeqFamily(kind, w)
        for i in range(1, 7):
            s_i = fam.second(i)
            assert s_i.k == 0
            assert beyond(s_i, bound(i << (i + 3)))
            # one smaller admissible weight (same parity) would break it
            w2 = list(w)
            w2[i - 1] -= 2
            if w2[i - 1] >= 1:
                assert not beyond(SeqFamily(kind, w2).second(i), bound(i << (i + 3)))

    def test_minimality_and_integrality(self):
        self.check_minimal("P", lambda n: -n, lambda s, b: s < b)

    def test_q_family_above_bound(self):
        self.check_minimal("Q", lambda n: n, lambda s, b: s > b)

    def test_large_bounds(self):
        w = choose_weights("P", lambda n: -(n**2), 12)
        fam = SeqFamily("P", w)
        for i in (1, 6, 12):
            assert fam.second(i) < -((i << (i + 3)) ** 2)

    def test_unknown_kind(self):
        with pytest.raises(UsageError):
            choose_weights("R", lambda n: n, 2)
