"""The three workloads: seeded inputs, the timed op, and the answer check.

Inputs are generated from the seed as text and plain parameters only;
the library sees nothing else.  Every workload is a sequence of cycles.
A cycle is a fixed multiset of op classes whose cost-relevant sizes are
set by the class, while the seed picks the concrete inputs inside each
class and, on expand and semigroup, the order of the cycle.  Runs measure whole cycles, so two
seeds put the same mix of work through the library and the end-to-end
figures compare across seeds.

Checks run outside the timed interval.  Each returns (ok, answer): the
answer is a canonical text of the op's result, hashed into the digest,
or a tuple of texts hashed as their concatenation.  A check holds less
memory than the op it checks, so peak RSS stays the op's.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

from . import schema

VARS = ("x", "y", "u", "v")
NONZERO = [c for c in range(-9, 10) if c]


# ---------------------------------------------------------------------------
# polynomial text


def random_terms(rng, nterms, names, max_degs, z_range):
    """nterms terms (coeff, z exponent, {var: exponent}) with distinct
    monomials, so the polynomial is nonzero and has exactly nterms terms."""
    seen = set()
    terms = []
    while len(terms) < nterms:
        exps = tuple(rng.randint(0, d) for d in max_degs)
        if exps in seen:
            continue
        seen.add(exps)
        terms.append((rng.choice(NONZERO), rng.randint(*z_range), dict(zip(names, exps))))
    return terms


def poly_text(terms) -> str:
    out = ""
    for i, (c, e, exps) in enumerate(terms):
        factors = []
        if abs(c) != 1 or (not e and not any(exps.values())):
            factors.append(str(abs(c)))
        if e:
            factors.append("z" if e == 1 else f"z^{e}")
        for name, k in exps.items():
            if k:
                factors.append(name if k == 1 else f"{name}^{k}")
        body = "*".join(factors)
        if i == 0:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def poly_of(vs, terms):
    """The MPoly a term list denotes, built without the parser."""
    return vs.MPoly({
        tuple(exps.get(n, 0) for n in VARS): vs.LaurentZ({e: c}) for c, e, exps in terms
    })


# ---------------------------------------------------------------------------
# expand


class Expand:
    """parse_poly(text) then valuate(v, f) on three long-lived valuations."""

    name = "expand"
    modules = ("valsem",)
    trace_cycles = 10
    SIGMA = [2, 5, 3, 7, 9]
    TAU = [1, 3, 5, 2, 6]

    def build(self, vs):
        state = {
            "P3": vs.ValuationDef.p3(self.SIGMA),
            "Q3": vs.ValuationDef.q3(self.TAU),
            "C5": vs.ValuationDef.combined(self.SIGMA, self.TAU),
        }
        # degree 15 in y and v fills the family caches up to P_4 and Q_4
        for form, text in (("P3", "y^15 + x^8"), ("Q3", "v^15 + u^8"),
                           ("C5", "y^15*v^15 + x*u")):
            vs.valuate(state[form], vs.parse_poly(text))
        return state

    def cycles(self, seed):
        rng = random.Random(seed)
        while True:
            ops = []
            # criterion-1 shape: up to 20 terms, x-degree <= 8, y-degree <= 15
            for n in range(2, 21, 2):
                ops.append(("P3", [random_terms(rng, n, ("x", "y"), (8, 15), (-5, 5))]))
            for n in range(4, 21, 4):
                ops.append(("Q3", [random_terms(rng, n, ("u", "v"), (8, 15), (-5, 5))]))
            # criterion-2 shape: products of 5-term polynomials in x, y, u, v
            for _ in range(5):
                ops.append(("C5", [random_terms(rng, 5, VARS, (3, 3, 3, 3), (-3, 3))
                                   for _ in range(2)]))
            ops = [(form, factors, "*".join(f"({poly_text(t)})" for t in factors)
                    if len(factors) > 1 else poly_text(factors[0]))
                   for form, factors in ops]
            rng.shuffle(ops)
            yield ops

    def run(self, vs, state, op):
        form, _, text = op
        f = vs.parse_poly(text)
        return f, vs.valuate(state[form], f)

    def check(self, vs, state, op, result):
        form, factors, _ = op
        v = state[form]
        f, res = result
        expected = poly_of(vs, factors[0])
        for t in factors[1:]:
            expected = expected * poly_of(vs, t)
        terms = res.expansion
        canonical = all(e in (0, 1) for t in terms for e in t.alpha[1:] + t.beta[1:])
        values = [vs.term_value(v, t) for t in terms]
        ok = (
            f == expected
            and canonical
            and vs.reconstruct(v, terms) == f
            and sum(1 for w in values if w == res.value) == 1
            and min(values) == res.value
            and vs.term_value(v, res.witness) == res.value
        )
        answer = vs.format_lexvec(res.value) + "|" + ";".join(
            f"{t.coeff}:{t.alpha}:{t.beta}" for t in terms
        )
        return ok, answer


# ---------------------------------------------------------------------------
# semigroup


class _TildeOracle:
    """Least scaled second coordinate for every scaled first coordinate
    (p, q) in a grid, by a min-plus unbounded knapsack; None where no
    combination of the generators reaches (p, q)."""

    def __init__(self, sg, den, p_max, q_max):
        gens = []
        for g in sg.generators:
            fc, sc = g.coords
            rat, surd = (fc.rat, fc.surd) if hasattr(fc, "surd") else (fc, None)
            gens.append((rat, surd, sc))
        self.shift = max(sc.k for _, _, sc in gens)
        self.den = den
        self.width = q_max + 1
        scaled = []
        for rat, surd, sc in gens:
            p = self.scale(rat)
            q = self.scale(surd) if surd is not None else 0
            if p or q:
                scaled.append((p, q, sc.num << (self.shift - sc.k)))
        best = [None] * ((p_max + 1) * self.width)
        best[0] = 0
        for idx in range(1, len(best)):
            p, q = divmod(idx, self.width)
            low = None
            for gp, gq, gs in scaled:
                if gp <= p and gq <= q:
                    prev = best[idx - gp * self.width - gq]
                    if prev is not None and (low is None or prev + gs < low):
                        low = prev + gs
            best[idx] = low
        self.best = best

    def scale(self, d):
        """d * den as an int, or None if d * den is not integral."""
        num = d.num * self.den
        return None if num % (1 << d.k) else num >> d.k

    def least(self, rat, surd):
        p, q = self.scale(rat), self.scale(surd)
        if p is None or q is None or q >= self.width or (p + 1) * self.width > len(self.best):
            return None
        return self.best[p * self.width + q]


class Semigroup:
    """GenSemigroup.tilde and box_bound_check on long-lived semigroups."""

    name = "semigroup"
    modules = ("valsem",)
    trace_cycles = 2
    # An op's cost grows with the size of lambda or of the window, about as
    # its cube, and hardly with the fraction or the denominator.  So each
    # slot fixes the integer parts (the cost), and the seed picks the
    # denominator and the fraction, or moves the window by one.  A cycle
    # has 25 slots: in whole cycles the 13th and 23rd cheapest slots then
    # hold the quantile positions of op_p50_ms and op_p90_ms mid-slot,
    # not on a boundary between two slots.
    # integer parts of lambda on box_semigroup(P3 2,5,3,7,9); denominators up to 2^6
    P3_SLOTS = [1, 2, 4, 6, 8, 12, 16, 20, 24, 32, 40, 52, 60]
    # integer parts of p and q in p + q*sqrt2 on C5 2,5,3 / 1,3,5; denominators up to 2^3
    C5_SLOTS = [(2, 2), (4, 3), (7, 7), (8, 9), (12, 12)]
    # (y1, y2) windows on P3 2,5, each moved by up to one
    COUNT_SLOTS = [(6, 8), (12, 10), (16, 20), (28, 28), (36, 30), (48, 48), (60, 56)]

    def build(self, vs):
        p3 = vs.ValuationDef.p3([2, 5, 3, 7, 9])
        c5 = vs.ValuationDef.combined([2, 5, 3], [1, 3, 5])
        state = {
            "p3": vs.box_semigroup(p3),
            "c5": vs.box_semigroup(c5),
            "box": vs.ValuationDef.p3([2, 5]),
        }
        state["p3"].tilde(vs.Dyadic(8))
        state["c5"].tilde(vs.QuadReal(2, 2))
        vs.box_bound_check(state["box"], 4, 4)
        return state

    def cycles(self, seed):
        rng = random.Random(seed)
        def dyadic(m, k):  # numerator over 2^k of a number in [m, m + 1)
            return (m << k) + rng.randrange(1 << k)

        while True:
            ops = []
            for m in self.P3_SLOTS:
                k = rng.randint(0, 6)
                ops.append(("tilde_p3", dyadic(m, k), k))
            for p, q in self.C5_SLOTS:
                kp, kq = rng.randint(0, 3), rng.randint(0, 3)
                ops.append(("tilde_c5", dyadic(p, kp), kp, dyadic(q, kq), kq))
            for y1, y2 in self.COUNT_SLOTS:
                ops.append(("count", y1 + rng.randint(-1, 1), y2 + rng.randint(-1, 1)))
            rng.shuffle(ops)
            yield ops

    def _lambda(self, vs, op):
        if op[0] == "tilde_p3":
            return vs.Dyadic(op[1], op[2])
        return vs.QuadReal(vs.Dyadic(op[1], op[2]), vs.Dyadic(op[3], op[4]))

    def run(self, vs, state, op):
        if op[0] == "count":
            return vs.box_bound_check(state["box"], op[1], op[2])
        sg = state["p3"] if op[0] == "tilde_p3" else state["c5"]
        return sg.tilde(self._lambda(vs, op))

    def check(self, vs, state, op, result):
        if op[0] == "count":
            _, y1, y2 = op
            bound = Fraction(y1 * y2 * y2)  # Theorem 1 with dims (1, 2), unit mults, eps 1
            ok = (result.count <= bound and result.bound == bound and result.ok
                  and (result.y1, result.y2) == (y1, y2))
            return ok, f"count {y1} {y2}: {result.count} {result.bound}"
        lam = self._lambda(vs, op)
        if op[0] == "tilde_p3":
            sg, key, grid = state["p3"], "oracle_p3", (64, 64 * 64, 0)
            least_args = (lam, vs.Dyadic(0))
        else:
            sg, key, grid = state["c5"], "oracle_c5", (8, 16 * 8, 16 * 8)
            least_args = (lam.rat, lam.surd)
        if key not in state:  # built on first use, outside the timed interval
            state[key] = _TildeOracle(sg, *grid)
        oracle = state[key]
        least = oracle.least(*least_args)
        if result is None:
            return least is None, f"tilde {lam}: None"
        total = sg.spec.zero()
        for g, e in zip(sg.generators, result.witness):
            total = total + g * e
        sc = result.tilde.coords[1]
        ok = (
            least is not None
            and len(result.witness) == len(sg.generators)
            and all(e >= 0 for e in result.witness)
            and total == result.tilde
            and result.tilde.coords[0] == lam
            and sc.num << (oracle.shift - sc.k) == least
        )
        return ok, f"tilde {lam}: {vs.format_lexvec(result.tilde)} {result.witness}"


# ---------------------------------------------------------------------------
# cli


_WS = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()


def _skip(text: str, i: int) -> int:
    return _WS.match(text, i).end()


def _expect(text: str, i: int, char: str) -> int:
    if text[i] != char:
        raise ValueError(f"expected {char!r} at {i}")
    return _skip(text, i + 1)


def scan_object(text: str, key: str, each) -> dict:
    """json.loads(text) for an object, except that the array under ``key``
    goes to ``each`` one item at a time and is not kept: the object
    returned holds [] there.  A large certificate is then checked without
    a parsed copy of all its rows."""
    doc = {}
    i = _expect(text, _skip(text, 0), "{")
    while text[i] != "}":
        name, i = _DECODER.raw_decode(text, i)
        i = _expect(text, _skip(text, i), ":")
        if name == key and text[i] == "[":
            i = _skip(text, i + 1)
            while text[i] != "]":
                item, i = _DECODER.raw_decode(text, i)
                each(item)
                i = _skip(text, i)
                if text[i] != "]":
                    i = _expect(text, i, ",")
            doc[name], i = [], i + 1
        else:
            doc[name], i = _DECODER.raw_decode(text, i)
        i = _skip(text, i)
        if text[i] != "}":
            i = _expect(text, i, ",")
    if _skip(text, i + 1) != len(text):
        raise ValueError("data after the object")
    return doc


def _ceil_sqrt2_times(num: int, k: int) -> int:
    """ceil(num / 2^k * sqrt2) for num > 0; the product is irrational."""
    return math.isqrt(2 * num * num) // (1 << k) + 1


def _dyadic_parts(text: str):
    num, _, den = text.partition("/")
    return int(num), (int(den).bit_length() - 1 if den else 0)


def _powersum(y: int, r: int) -> int:
    """sum_{n=1}^{y-1} n^r in closed form, r in {1, 2}."""
    if r == 1:
        return y * (y - 1) // 2
    return (y - 1) * y * (2 * y - 1) // 6


class Cli:
    """One in-process valsem.cli.main(argv) per op, stdout captured."""

    name = "cli"
    modules = ("valsem", "valsem.cli")
    trace_cycles = 1
    # (kind, N, format, f, g, a, a2); the seed picks c and trims N by up to 15.
    # Six mid-sized certificates hold the median op; three near N = 4096 of
    # the both kind hold op_p90_ms; the largest sets peak_rss_mb.
    WILD_SLOTS = [
        ("decreasing", 1024, "json", "neg_pow(2)", "linear", "3/2", None),
        ("increasing", 1024, "csv", "neg_linear", "pow:3", "1", None),
        ("decreasing", 1024, "csv", "neg_pow:3", "linear", "1", None),
        ("increasing", 1024, "json", "neg_linear", "pow(2)", "2", None),
        ("decreasing", 2048, "pretty", "neg_linear", "linear", "2", None),
        ("increasing", 2048, "pretty", "neg_linear", "pow(2)", "3/2", None),
        ("both", 4096, "json", "neg_linear", "linear", "1", None),
        ("both", 4096, "csv", "neg_pow(2)", "pow(2)", "3/2", "1"),
        ("both", 4096, "json", "neg_pow:3", "pow(2)", "2", "3/2"),
        ("both", 16384, "json", "neg_linear", "linear", "1", None),
    ]
    # (r, format, y2-max); the seed picks y1 in [16, 128] and d
    EXAMPLE3_SLOTS = [(1, "json", 2048), (1, "csv", 1024), (1, "pretty", 2048),
                      (2, "json", 2048), (2, "csv", 1024), (2, "pretty", 2048)]

    def build(self, vs):
        state = {"schemas": {}}
        for path in sorted((Path(vs.__file__).parent / "schemas").glob("*.json")):
            state["schemas"][path.stem] = json.loads(path.read_text())
        self.run(vs, state, ("selftest", ["selftest"], {}))
        return state

    def cycles(self, seed):
        rng = random.Random(seed)
        while True:
            ops = [self._wild(rng, *slot) for slot in self.WILD_SLOTS]
            ops += [self._example3(rng, *slot) for slot in self.EXAMPLE3_SLOTS]
            for _ in range(2):
                ops += [self._valuate(rng), self._expand(rng), self._tilde(rng),
                        self._count(rng),
                        ("selftest", ["selftest", "--seed", str(rng.randint(0, 999))], {})]
            # kept in slot order: an op that follows a large certificate
            # pays for the memory handed back, so the order sets op costs
            yield ops

    # -- generators -------------------------------------------------------

    def _wild(self, rng, kind, n_max, fmt, f, g, a, a2):
        n, c = n_max - rng.randint(0, 15), rng.randint(1, 3)
        argv = ["wild", "--kind", kind, "--N", str(n), "--format", fmt,
                "--f", f, "--g", g, "--a", a, "--c", str(c)]
        if a2 is not None:
            argv += ["--a2", a2]
        e = -(-_dyadic_parts(a)[0] // (1 << _dyadic_parts(a)[1]))
        if kind == "both":
            e = max(e, _ceil_sqrt2_times(*_dyadic_parts(a2 or a)))
        n0 = e << (e + 2)
        chains = 2 if kind == "both" else 1
        return ("wild", argv, {"kind": kind, "fmt": fmt, "n0": n0, "N": n, "c": c,
                               "rows": chains * (n - n0 + 1)})

    def _example3(self, rng, r, fmt, y2_max):
        y1, d = rng.randint(16, 128), rng.choice([10**3, 10**4, 10**5, 10**6])
        argv = ["example3", "--r", str(r), "--y1", str(y1), "--y2-max", str(y2_max),
                "--d", str(d), "--format", fmt]
        return ("example3", argv, {"r": r, "y1": y1, "y2_max": y2_max, "d": d, "fmt": fmt})

    def _valuate(self, rng):
        fmt = rng.choice(["pretty", "json"])
        text = poly_text(random_terms(rng, rng.randint(1, 8), ("x", "y"), (8, 15), (-5, 5)))
        return ("valuate", ["valuate", "--sigma", "2,5,3,7,9", f"--poly={text}",
                            "--format", fmt], {"fmt": fmt})

    def _expand(self, rng):
        factors = [poly_text(random_terms(rng, 3, VARS, (3, 3, 3, 3), (-3, 3))) for _ in range(2)]
        text = "*".join(f"({t})" for t in factors)
        return ("expand", ["expand", "--sigma", "2,5,3", "--tau", "1,3,5", f"--poly={text}",
                           "--format", "json"], {})

    def _tilde(self, rng):
        # m*x + j*P_1 lies in the semigroup, so the value is always found
        m, j = rng.randint(1, 12), rng.randint(0, 4)
        twice = 2 * m + 5 * j
        text = f"{twice}/2^1" if twice % 2 else str(twice // 2)
        return ("tilde", ["tilde", "--sigma", "2,5,3,7,9", "--lambda", text,
                          "--format", "json"], {"lambda": text})

    def _count(self, rng):
        y1, y2, fmt = rng.randint(2, 16), rng.randint(2, 16), rng.choice(["json", "csv"])
        return ("count", ["count", "--y1", str(y1), "--y2", str(y2), "--format", fmt],
                {"y1": y1, "y2": y2, "fmt": fmt})

    # -- op and checks ----------------------------------------------------

    def run(self, vs, state, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = vs.cli.main(op[1])
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code
        return rc, out.getvalue()

    def check(self, vs, state, op, result):
        kind, _, params = op
        rc, out = result
        ok = getattr(self, "_check_" + kind)(state, params, rc, out)
        return ok, (f"{rc}\n", out)

    def _check_wild(self, state, p, rc, out):
        if rc != 0:
            return False
        if p["fmt"] == "pretty":
            return out == f"kind {p['kind']}, rows {p['rows']}, all ok\n"
        seen = {"rows": 0, "bad": 0, "first": None, "last": None}

        def each(n, ok):
            seen["bad"] += not ok
            seen["first"] = n if seen["first"] is None else seen["first"]
            seen["last"] = n
            seen["rows"] += 1

        if p["fmt"] == "csv":
            reader = csv.reader(io.StringIO(out))
            if next(reader) != ["n", "i", "chain", "lambda", "witness", "lhs", "rhs", "ok"]:
                return False
            for row in reader:
                each(int(row[0]), len(row) == 8 and row[7] == "True")
            doc_ok = True
        else:
            cert_schema = state["schemas"]["certificate"]
            row_schema = cert_schema["properties"]["rows"]["items"]
            doc = scan_object(out, "rows", lambda row: each(
                row.get("n"), not schema.errors(row, row_schema) and row["ok"] is True))
            doc_ok = (not schema.errors(doc, cert_schema) and doc["valid"] is True
                      and doc["kind"] == p["kind"] and doc["params"]["c"] == p["c"])
        return (doc_ok and seen["rows"] == p["rows"] and seen["bad"] == 0
                and seen["first"] == p["n0"] and seen["last"] == p["N"])

    def _check_example3(self, state, p, rc, out):
        header = ["y2", "lower_bound", "exact_count", "claimed_bound", "crossed"]
        if p["fmt"] == "json":
            doc = json.loads(out)
            if schema.errors(doc, state["schemas"]["count_table"]) or doc["kind"] != "example3":
                return False
            rows = [[r[h] for h in header] for r in doc["rows"]]
        else:
            if p["fmt"] == "csv":
                lines = list(csv.reader(io.StringIO(out)))
            else:
                lines = [line.split("  ") for line in out.splitlines()]
                verdict = lines.pop()
            if lines[0] != header:
                return False
            rows = [[int(c) for c in r[:4]] + [r[4] == "True"] for r in lines[1:]]
        r, y1, d = p["r"], p["y1"], p["d"]
        grid = [1 << i for i in range(p["y2_max"].bit_length())]
        if [row[0] for row in rows] != grid:
            return False
        acc, lower = 0, {}
        for i in range(1, grid[-1]):
            acc += _powersum(i * y1, r)
            lower[i + 1] = acc
        crossed_any = False
        for y2, low, exact, claimed, crossed in rows:
            expect_low = _powersum(y1, r) + lower.get(y2, 0)
            expect_claim = d * y1 ** (r + 1) * y2
            if (low, claimed, crossed) != (expect_low, expect_claim, expect_low > expect_claim):
                return False
            if exact < low:
                return False
            crossed_any = crossed_any or crossed
        if p["fmt"] == "pretty":
            want = "crossover found" if crossed_any else "no crossover in range"
            if verdict != [want]:
                return False
        return rc == (0 if crossed_any else 1)

    def _check_valuate(self, state, p, rc, out):
        if rc != 0:
            return False
        if p["fmt"] == "json":
            doc = json.loads(out)
            return doc["value"].startswith("(") and doc["witness"] in doc["expansion"]
        lines = out.splitlines()
        return (lines[0].startswith("(") and lines[1].startswith("witness: ")
                and lines[2] == "expansion:" and "  " + lines[1][9:] in lines[3:])

    def _check_expand(self, state, p, rc, out):
        doc = json.loads(out) if rc == 0 else {}
        return (rc == 0 and doc["valuation"]["form"] == "C5" and len(doc["terms"]) >= 1
                and all(isinstance(t, str) for t in doc["terms"]))

    def _check_tilde(self, state, p, rc, out):
        doc = json.loads(out) if rc == 0 else {}
        return (rc == 0 and doc["lambda"] == p["lambda"]
                and doc["tilde"].startswith(f"({p['lambda']}, ") and bool(doc["witness"]))

    def _check_count(self, state, p, rc, out):
        y1, y2 = p["y1"], p["y2"]
        if rc != 0:
            return False
        if p["fmt"] == "json":
            doc = json.loads(out)
            if schema.errors(doc, state["schemas"]["count_table"]) or doc["kind"] != "box_count":
                return False
            (row,) = doc["rows"]
            row = [row["y1"], row["y2"], row["count"], row["bound"], row["ok"]]
        else:
            lines = list(csv.reader(io.StringIO(out)))
            if lines[0] != ["y1", "y2", "count", "bound", "ok"] or len(lines) != 2:
                return False
            row = [int(lines[1][0]), int(lines[1][1]), int(lines[1][2]), lines[1][3],
                   lines[1][4] == "True"]
        bound = y1 * y2 * y2
        return row[:2] == [y1, y2] and row[2] <= bound and row[3] == str(bound) and row[4]

    def _check_selftest(self, state, p, rc, out):
        lines = out.splitlines()
        return rc == 0 and bool(lines) and all(line.endswith(": ok") for line in lines)


WORKLOADS = {w.name: w for w in (Expand(), Semigroup(), Cli())}
