"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass line with its elapsed time and asserts
an explicit runtime cap; all comparisons are exact."""

import random
import time
from fractions import Fraction
from itertools import product as iproduct

from valsem.exact import Dyadic
from valsem.genseq import (
    SeqFamily,
    ValuationDef,
    check_key_identity,
    eta,
    expand,
    reconstruct,
    term_value,
    valuate,
)
from valsem.gensemi import box_bound_check, box_semigroup
from valsem.semigroups import (
    contradiction_table,
    powersum,
    stair_count,
    stair_count_upto,
    stair_members,
    t_box_count,
)
from valsem.wild import WildParams, make_wild_valuation, wild_certificate

from conftest import hs_length, random_poly
from test_gensemi import brute_tilde

NEG_SQ = lambda n: -(n**2)
POS_SQ = lambda n: n**2


def report(num, name, t0, cap):
    elapsed = time.perf_counter() - t0
    print(f"criterion {num} ({name}): PASS [{elapsed:.2f}s <= {cap}s]")
    assert elapsed <= cap


def test_criterion_1_expansion_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    v = ValuationDef.p3([2, 5, 3, 7, 9])
    for _ in range(1000):
        f = random_poly(
            rng, ("x", "y"), max_terms=20, max_deg=8, z_range=(-5, 5), max_y_deg=15
        )
        terms = expand(v, f)
        assert reconstruct(v, terms) == f
        assert expand(v, reconstruct(v, terms)) == terms
    report(1, "expansion round-trip", t0, 20)


def test_criterion_2_valuation_homomorphism():
    t0 = time.perf_counter()
    rng = random.Random(1002)
    v = ValuationDef.combined([2, 5, 3, 7, 9], [1, 3, 5, 2, 6])
    for _ in range(500):
        f = random_poly(rng, ("x", "y", "u", "v"), max_terms=5, max_deg=3)
        g = random_poly(rng, ("x", "y", "u", "v"), max_terms=5, max_deg=3)
        rf, rg = valuate(v, f), valuate(v, g)
        assert valuate(v, f * g).value == rf.value + rg.value
        if not (f + g).is_zero():
            vs = valuate(v, f + g).value
            assert vs >= min(rf.value, rg.value)
            if rf.value != rg.value:
                assert vs == min(rf.value, rg.value)
        for res in (rf, rg):
            values = [term_value(v, t) for t in res.expansion]
            assert sum(1 for w in values if w == res.value) == 1
            assert all(res.value <= w for w in values)
    report(2, "valuation homomorphism", t0, 30)


def test_criterion_3_key_identities():
    t0 = time.perf_counter()
    rng = random.Random(1003)
    sigma = [rng.randint(1, 9) for _ in range(7)]
    tau = [rng.randint(1, 9) for _ in range(7)]
    v = ValuationDef.combined(sigma, tau)
    for i in range(1, 7):
        assert check_key_identity(v, i)
    sigma64 = [rng.randint(1, 9) for _ in range(65)]
    tau64 = [rng.randint(1, 9) for _ in range(65)]
    v64 = ValuationDef.combined(sigma64, tau64)
    for i in range(1, 65):
        assert check_key_identity(v64, i)
    for i in range(65):
        assert eta(i).k == i and eta(i).num & 1  # canonical, odd numerator
        assert eta(i).as_fraction() == Fraction(2 ** (i + 2) - Fraction(1, 2**i), 3)
        if i:
            assert eta(i) == 2 * eta(i - 1) + Dyadic(1, i)
    report(3, "key identities", t0, 10)


def test_criterion_4_staircase_counts():
    t0 = time.perf_counter()
    for r in (1, 2):
        for n in range(1, 65):
            assert stair_count(r, n) == len(stair_members(r, n, n + 1))
    for r in (1, 2, 3):
        for n in range(1, 4097):
            c = stair_count(r, n)
            assert n**r < c <= (2**r) * n**r
    for r in (1, 2, 3):
        for y in range(2, 513):
            c = stair_count_upto(r, y)
            f = powersum(y, r)
            assert f < c <= (2**r) * f
    report(4, "staircase counts", t0, 10)


def test_criterion_5_staircase_contradiction():
    t0 = time.perf_counter()
    r, y1, d = 1, 64, 10**6
    grid = [2**k for k in range(13)]  # 1 .. 4096
    rows = contradiction_table(r, y1, grid, d)
    assert any(row.crossed for row in rows)
    for row in rows:
        assert row.crossed == (row.lower_bound > row.claimed_bound)
        assert row.lower_bound <= row.exact_count
    ratios = [
        Fraction(t_box_count(r, y1, y2), y1**2 * y2) for y2 in range(2, 65, 2)
    ]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    report(5, "staircase contradiction", t0, 10)


def test_criterion_6_wild_certificates():
    t0 = time.perf_counter()
    grid = [WildParams(1, 1), WildParams(Dyadic(3, 1), 2), WildParams(Dyadic(5, 2), 3)]
    for params in grid:
        for kind in ("decreasing", "increasing", "both"):
            v = make_wild_valuation(kind, f=NEG_SQ, g=POS_SQ, N=4096, params=params)
            cert = wild_certificate(v, params, f=NEG_SQ, g=POS_SQ, N=4096)
            assert cert.valid
            first_n = min(r.n for r in cert.rows)
            assert {r.n for r in cert.rows} == set(range(first_n, 4097))
    # negative control: one crushed weight must break the certificate
    v = make_wild_valuation("decreasing", f=NEG_SQ, N=4096)
    bad = SeqFamily("P", [1 if i == 2 else v.p.weight(i) for i in range(1, v.p.max_index + 1)])
    cert = wild_certificate(ValuationDef(p=bad), WildParams(), f=NEG_SQ, N=4096)
    assert not cert.valid
    report(6, "wild certificates", t0, 30)


def test_criterion_7_tilde_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1007)
    v = ValuationDef.p3([2, 5, 3, 7, 9])  # members through index 5
    sg = box_semigroup(v)
    for _ in range(200):
        k = rng.randint(0, 6)
        lam = Fraction(rng.randint(0, 12 << k), 1 << k)
        oracle = brute_tilde(sg.generators, lam)
        entry = sg.tilde(Dyadic.from_fraction(lam))
        if oracle is None:
            assert entry is None
        else:
            assert entry is not None
            assert entry.tilde.coords[1].as_fraction() == oracle[0]
    report(7, "tilde oracle equivalence", t0, 20)


def test_criterion_8_box_bound_consistency():
    t0 = time.perf_counter()
    v = ValuationDef.p3([2, 5])
    for y1 in range(1, 33):
        for y2 in range(1, 33):
            report_row = box_bound_check(v, y1, y2)
            assert report_row.ok
    report(8, "box-bound consistency", t0, 30)


def test_criterion_9_hs_length():
    t0 = time.perf_counter()
    for d in range(1, 5):
        for y in range(13):
            count = sum(
                1 for exps in iproduct(range(y), repeat=d) if sum(exps) < y
            )
            assert hs_length(d, y) == count
    report(9, "length formula", t0, 2)


def test_criterion_10_suite_runtime(request):
    elapsed = time.perf_counter() - request.config._suite_start
    print(f"criterion 10 (full suite runtime): PASS [{elapsed:.2f}s <= 120s]")
    assert elapsed <= 120
