import random
from fractions import Fraction
from math import gcd

import pytest

from valsem.errors import CapExceeded, UsageError
from valsem.exact import DYADIC2, QUAD2, Dyadic, QuadReal, _decode
from valsem.genseq import ValuationDef, eta
from valsem.gensemi import DEFAULT_STATE_CAP, Box, GenSemigroup, box_bound_check, box_semigroup
from valsem.semigroups import theorem1_bound


def _fc_parts(x):
    """Rational and sqrt2 parts of a first coordinate, as Fractions."""
    if isinstance(x, Fraction):
        return x, Fraction(0)
    if isinstance(x, QuadReal):
        return x.rat.as_fraction(), x.surd.as_fraction()
    return Dyadic._coerce(x).as_fraction(), Fraction(0)


def brute_tilde(gens, lam):
    """(least second coordinate, exponent vector over gens) among all
    exponent vectors of the positive-first-coordinate generators summing
    to lam, the vector being the lexicographically greatest of those
    attaining the least value; None if lam is not representable.
    Independent of the knapsack implementation: plain enumeration over
    Fractions, with the rational and sqrt2 parts matched separately."""
    pos = [
        (i, _fc_parts(g.coords[0]), g.coords[1].as_fraction())
        for i, g in enumerate(gens)
        if any(_fc_parts(g.coords[0]))
    ]

    best = [None]

    def rec(idx, rem_r, rem_s, sc, exps):
        if rem_r == 0 and rem_s == 0:
            vec = [0] * len(gens)
            for (i, _, _), e in zip(pos, exps):
                vec[i] = e
            cand = (sc, tuple(vec))
            if best[0] is None or sc < best[0][0] or (sc == best[0][0] and cand[1] > best[0][1]):
                best[0] = cand
            return
        if idx == len(pos):
            return
        _, (r, s), gsc = pos[idx]
        e = 0
        while e * r <= rem_r and e * s <= rem_s:
            rec(idx + 1, rem_r - e * r, rem_s - e * s, sc + e * gsc, exps + [e])
            e += 1

    rec(0, *_fc_parts(lam), Fraction(0), [])
    return best[0]


def minplus_tilde(gens, lam):
    """The same answer as brute_tilde by a min-plus knapsack DP over the
    grid of (rational, sqrt2) first-coordinate parts below lam, scaled
    to integers, with one table per suffix of the generators: the least
    value, then the greatest exponent generator by generator that keeps
    it.  Both parts are searched jointly, so it serves as an oracle for
    the part split at sizes brute_tilde cannot reach."""
    pos = [
        (i, _fc_parts(g.coords[0]), g.coords[1].as_fraction())
        for i, g in enumerate(gens)
        if any(_fc_parts(g.coords[0]))
    ]
    lam_r, lam_s = _fc_parts(lam)
    den = 1
    for x in [lam_r, lam_s] + [c for _, rs, _ in pos for c in rs]:
        den = den * x.denominator // gcd(den, x.denominator)
    P, Q, W = int(lam_r * den), int(lam_s * den), int(lam_s * den) + 1
    steps = [(int(r * den), int(s * den), sc) for _, (r, s), sc in pos]
    table = [None] * ((P + 1) * W)
    table[0] = Fraction(0)
    tables = [table]  # tables[-1 - j]: the generators j.. only
    for gp, gq, sc in reversed(steps):
        table = list(table)
        for p in range(gp, P + 1):
            for q in range(gq, Q + 1):
                prev = table[(p - gp) * W + q - gq]
                if prev is not None and (table[p * W + q] is None or prev + sc < table[p * W + q]):
                    table[p * W + q] = prev + sc
        tables.append(table)
    tables.reverse()
    best = tables[0][P * W + Q]
    if best is None:
        return None
    vec, rem_p, rem_q, acc = [0] * len(gens), P, Q, Fraction(0)
    for (i, _, _), (gp, gq, sc), rest in zip(pos, steps, tables[1:]):
        e = min(rem // g for rem, g in ((rem_p, gp), (rem_q, gq)) if g)
        while True:
            tail = rest[(rem_p - e * gp) * W + rem_q - e * gq]
            if tail is not None and acc + e * sc + tail == best:
                break
            e -= 1
        vec[i] = e
        rem_p, rem_q, acc = rem_p - e * gp, rem_q - e * gq, acc + e * sc
    return best, tuple(vec)


def enumerate_box(sg, box, cap=DEFAULT_STATE_CAP):
    """Every distinct nonzero semigroup element inside the box, exact and
    sorted: each set bit of the cells that count_box counts, decoded."""
    fk, sk, m, cells = sg._box_cells(box, cap)
    out = []
    for key, (lo, mask) in cells.items():
        p, q = divmod(key, m)
        if not key:
            mask -= 1  # the zero element is not a member
        while mask:
            low = mask & -mask
            out.append(_decode(sg.spec.quad, p, q, fk, lo + low.bit_length() - 1, sk))
            mask ^= low
    return sorted(out)


def brute_box(sg, box):
    """Every nonzero element in the box, by listing each combination of
    the positive-first-coordinate generators below y2*t2 and adding
    every zero-generator sum below the window: the combination
    enumeration that counted boxes before the DP, kept as its oracle."""
    if box.y1 == 0 or box.y2 == 0:
        return []
    fc_hi = box.y2 * box.t2
    width = box.y1 * box.t1.coords[1]
    pos = [g for g in sg.generators if g.coords[0]]
    zeros = [g.coords[1] for g in sg.generators if not g.coords[0]]
    combos = []

    def rec(idx, acc):
        if idx == len(pos):
            combos.append(acc)
            return
        while acc.coords[0] < fc_hi:
            rec(idx + 1, acc)
            acc = acc + pos[idx]

    rec(0, sg.spec.zero())
    zero_sums, frontier = {Dyadic(0)}, [Dyadic(0)]
    while frontier:
        cur = frontier.pop()
        for z in zeros:
            nxt = cur + z
            if nxt < width and nxt not in zero_sums:
                zero_sums.add(nxt)
                frontier.append(nxt)
    by_fc = {}
    for c in combos:
        by_fc.setdefault(c.coords[0], []).append(c.coords[1])
    elements = set()
    for fc, scs in by_fc.items():
        hi = min(scs) + width
        for s0 in scs:
            for t in zero_sums:
                if s0 + t < hi:
                    elements.add(sg.spec.vec(fc, s0 + t))
    elements.discard(sg.spec.zero())
    return sorted(elements)


def sigma_25():
    return ValuationDef.p3([2, 5])


class TestTilde:
    def test_worked_examples(self):
        sg = box_semigroup(sigma_25())
        entry = sg.tilde(Dyadic(21, 2))
        assert entry.tilde == DYADIC2.vec(Dyadic(21, 2), -3)
        assert sg.tilde(Dyadic(0)).tilde == DYADIC2.zero()
        assert sg.tilde(Dyadic(1)).tilde == DYADIC2.vec(1, 0)
        assert sg.tilde(Fraction(1, 3)) is None
        assert sg.tilde(Dyadic(1, 3)) is None  # below the least generator

    def test_matches_brute_force(self):
        v = ValuationDef.p3([2, 5, 3, 7, 9])
        sg = box_semigroup(v)
        rng = random.Random(101)
        checked = 0
        while checked < 200:
            k = rng.randint(0, 6)
            lam = Fraction(rng.randint(0, 12 << k), 1 << k)
            oracle = brute_tilde(sg.generators, lam)
            entry = sg.tilde(Dyadic.from_fraction(lam))
            if oracle is None:
                assert entry is None
            else:
                assert entry is not None
                assert entry.tilde.coords[1].as_fraction() == oracle[0]
                assert entry.witness == oracle[1]
            checked += 1

    def test_quad_matches_brute_force(self):
        sg = box_semigroup(ValuationDef.combined([2, 5], [1, 3]))
        rng = random.Random(103)
        found = 0
        for _ in range(100):
            lam = QuadReal(
                Dyadic(rng.randint(0, 4 << 2), 2),
                Dyadic(rng.randint(0, 4 << 2), 2),
            )
            oracle = brute_tilde(sg.generators, lam)
            entry = sg.tilde(lam)
            if oracle is None:
                assert entry is None
            else:
                found += 1
                assert entry.tilde == sg.spec.vec(lam, Dyadic.from_fraction(oracle[0]))
                assert entry.witness == oracle[1]
        assert found >= 15

    def test_small_random_sets_match_brute_force(self):
        # few distinct values, so equal least values (the tie rule) and
        # pruning bounds that are tight to one unit both occur
        rng = random.Random(7)
        for _ in range(300):
            sg = GenSemigroup(DYADIC2, [
                DYADIC2.vec(Dyadic(rng.randint(1, 8), 2), rng.randint(-2, 2))
                for _ in range(rng.randint(2, 5))
            ])
            lam = Dyadic(rng.randint(0, 24), 2)
            oracle = brute_tilde(sg.generators, lam)
            entry = sg.tilde(lam)
            if oracle is None:
                assert entry is None
            else:
                assert entry.tilde.coords[1].as_fraction() == oracle[0]
                assert entry.witness == oracle[1]

    def test_off_lattice_is_none_without_search(self):
        # 3887/2^6 has more halvings than any generator: no state is visited
        sg = box_semigroup(ValuationDef.p3([2, 5, 3, 7, 9]))
        assert sg.tilde(Dyadic(3887, 6), cap=1) is None

    def test_projection_property(self):
        sg = box_semigroup(sigma_25())
        for lam in (Dyadic(1), Dyadic(5, 1), Dyadic(21, 2), Dyadic(7)):
            entry = sg.tilde(lam)
            if entry is None:
                continue
            assert entry.tilde.first == lam

    def test_witness_reconstructs_lambda(self):
        sg = box_semigroup(sigma_25())
        entry = sg.tilde(Dyadic(13, 1))
        assert entry is not None
        total = sg.spec.zero()
        for g, e in zip(sg.generators, entry.witness):
            total = total + e * g
        assert total == entry.tilde

    def test_quad_constraints_are_independent(self):
        v = ValuationDef.combined([2, 5], [1, 3])
        sg = box_semigroup(v)
        # eta_1 * sqrt2 is hit only by the Q-chain member
        lam = QuadReal(0, Dyadic(5, 1))
        entry = sg.tilde(lam)
        assert entry is not None
        assert entry.tilde.coords[1] == Dyadic(1, 1)
        # 1 + sqrt2 needs one of each root
        both = sg.tilde(QuadReal(1, 1))
        assert both is not None and both.tilde.coords[1] == Dyadic(0)
        # a value with no representation
        assert sg.tilde(QuadReal(Dyadic(1, 3), 0)) is None

    def test_cap(self):
        v = ValuationDef.p3([2, 5, 3, 7, 9])
        sg = box_semigroup(v)
        with pytest.raises(CapExceeded):
            sg.tilde(Dyadic(12), cap=10)


def _c5():
    return box_semigroup(ValuationDef.combined([2, 5, 3], [1, 3, 5]))


class TestTildeParts:
    """The rational and sqrt2 parts of lambda, searched apart when no
    generator has both."""

    def test_separable_sets_match_brute_force(self):
        # few distinct values, so that ties occur inside a part and across
        # the two parts; some sets lack one part, some lambdas one part
        rng = random.Random(11)
        seen = {"found": 0, "none": 0, "one part": 0}
        for _ in range(300):
            gens = [
                QUAD2.vec(rng.choice([QuadReal(Dyadic(a, 1), 0), QuadReal(0, Dyadic(a, 1))]),
                          rng.randint(-2, 2))
                for a in (rng.randint(1, 6) for _ in range(rng.randint(1, 5)))
            ]
            if rng.random() < 0.3:
                gens.append(QUAD2.vec(0, 1))
            sg = GenSemigroup(QUAD2, gens)
            assert len(sg._parts) == 2
            lam = QuadReal(Dyadic(rng.choice([0, rng.randint(1, 14)]), 1),
                           Dyadic(rng.choice([0, rng.randint(1, 14)]), 1))
            oracle = brute_tilde(sg.generators, lam)
            entry = sg.tilde(lam)
            if oracle is None:
                assert entry is None
                seen["none"] += 1
            else:
                assert entry.tilde == QUAD2.vec(lam, Dyadic.from_fraction(oracle[0]))
                assert entry.witness == oracle[1]
                seen["found"] += 1
            seen["one part"] += not (lam.rat and lam.surd)
        assert min(seen.values()) >= 50

    def test_mixed_surd_sets_match_brute_force(self):
        # a generator at 1 + sqrt2 ties the parts: one joint search
        rng = random.Random(13)
        found = 0
        for _ in range(200):
            gens = [QUAD2.vec(QuadReal(1, 1), rng.randint(-2, 2))] + [
                QUAD2.vec(QuadReal(Dyadic(rng.randint(0, 3), 1), Dyadic(rng.randint(0, 3), 1)),
                          rng.randint(-2, 2))
                for _ in range(rng.randint(1, 4))
            ]
            gens = [g for g in gens if g.first]
            sg = GenSemigroup(QUAD2, gens)
            assert len(sg._parts) == 1
            lam = QuadReal(Dyadic(rng.randint(0, 10), 1), Dyadic(rng.randint(0, 10), 1))
            oracle = brute_tilde(sg.generators, lam)
            assert minplus_tilde(sg.generators, lam) == oracle
            entry = sg.tilde(lam)
            if oracle is None:
                assert entry is None
            else:
                found += 1
                assert entry.tilde == QUAD2.vec(lam, Dyadic.from_fraction(oracle[0]))
                assert entry.witness == oracle[1]
        assert found >= 50

    def test_unreached_part_is_none_without_search(self):
        # no P3 generator has a sqrt2 part
        sg = box_semigroup(ValuationDef.p3([2, 5, 3, 7, 9]))
        assert sg.tilde(QuadReal(300, 1), cap=1) is None

    @pytest.mark.parametrize("p,q", [(12, 12), (24, 24), (33, 17), (40, 40)])
    def test_c5_matches_min_plus(self, p, q):
        # a joint search of both parts needs 1,755,378 states at (40, 40);
        # the split needs 1,343, so 5,000 holds any return to the joint one
        sg = _c5()
        lam = QuadReal(p, q)
        oracle = minplus_tilde(sg.generators, lam)
        entry = sg.tilde(lam, cap=5_000)
        assert entry.tilde == QUAD2.vec(lam, Dyadic.from_fraction(oracle[0]))
        assert entry.witness == oracle[1]
        if (p, q) == (40, 40):
            assert entry.tilde.second == -21

    def test_parts_share_the_cap(self):
        # (40, 0) takes 1,301 states and (0, 40) 42: each part fits under
        # 1,320, both together do not
        sg = _c5()
        assert sg.tilde(QuadReal(40, 0), cap=1_320) is not None
        assert sg.tilde(QuadReal(0, 40), cap=1_320) is not None
        with pytest.raises(CapExceeded, match="tilde knapsack state cap exceeded"):
            sg.tilde(QuadReal(40, 40), cap=1_320)


class TestGenSemigroupBasics:
    def test_generator_validation(self):
        with pytest.raises(UsageError):
            GenSemigroup(DYADIC2, [DYADIC2.vec(-1, 0)])
        with pytest.raises(UsageError):
            GenSemigroup(DYADIC2, [DYADIC2.vec(0, 0)])
        with pytest.raises(UsageError):
            GenSemigroup(DYADIC2, [DYADIC2.vec(0, -1)])
        sg = GenSemigroup(DYADIC2, [DYADIC2.vec(1, -5), DYADIC2.vec(0, 1)])
        # one generator with a zero and one with a positive first coordinate
        assert [g.first.sign() for g in sg.generators] == [0, 1]

    def test_dedup_and_sort(self):
        a, b = DYADIC2.vec(1, 0), DYADIC2.vec(0, 1)
        sg = GenSemigroup(DYADIC2, [a, b, a])
        assert sg.generators == [b, a]


class TestEnumerateBox:
    def test_two_generator_example(self):
        sg = GenSemigroup(DYADIC2, [DYADIC2.vec(0, 1), DYADIC2.vec(1, 0)])
        box = Box(2, 2, DYADIC2.vec(0, 1), 1)
        got = enumerate_box(sg, box)
        assert got == [DYADIC2.vec(0, 1), DYADIC2.vec(1, 0), DYADIC2.vec(1, 1)]
        assert sg.count_box(box) == 3

    def test_empty_generators(self):
        sg = GenSemigroup(DYADIC2, [])
        box = Box(3, 3, DYADIC2.vec(0, 1), 1)
        assert enumerate_box(sg, box) == []

    def test_empty_windows(self):
        sg = GenSemigroup(DYADIC2, [DYADIC2.vec(1, 0)])
        assert enumerate_box(sg, Box(0, 3, DYADIC2.vec(0, 1), 1)) == []
        assert enumerate_box(sg, Box(3, 0, DYADIC2.vec(0, 1), 1)) == []
        # a window is a nonnegative integer
        for y1, y2, match in ((-1, 2, "nonnegative"), (2, -1, "nonnegative"),
                              (1.5, 2, "integers"), (2, 2.5, "integers"),
                              (Fraction(3, 2), 2, "integers")):
            with pytest.raises(UsageError, match=match):
                Box(y1, y2, DYADIC2.vec(0, 1), 1)

    def test_t1_must_be_level_one(self):
        with pytest.raises(UsageError):
            Box(1, 1, DYADIC2.vec(1, 0), 1)

    def test_output_sorted_unique_and_closed(self):
        v = sigma_25()
        sg = box_semigroup(v)
        box = Box(6, 6, v.t1(), v.t2())
        got = enumerate_box(sg, box)
        assert got == sorted(got)
        assert len(got) == len(set(got))
        members = set(got)
        fc_hi = 6
        for a in got:
            for b in got:
                s = a + b
                if s.coords[0] >= fc_hi:
                    continue
                if s in members:
                    continue
                # a sum may leave the box through the second-coordinate
                # window even when an element at that first coordinate
                # exists; it must never be "missing" while inside
                lam = s.coords[0]
                entry = sg.tilde(lam)
                width = Dyadic(6)
                assert not (
                    entry is not None
                    and entry.tilde.coords[1] <= s.coords[1] < entry.tilde.coords[1] + width
                )

    def test_matches_brute_force_small(self):
        v = sigma_25()
        sg = box_semigroup(v)
        box = Box(3, 3, v.t1(), v.t2())
        got = enumerate_box(sg, box)
        # brute force: exponent vectors over all generators
        gens = sg.generators
        bounds = []
        for g in gens:
            fc = g.coords[0].as_fraction()
            if fc > 0:
                bounds.append(int(Fraction(3) / fc) + 1)
            else:
                bounds.append(int(Fraction(3 * 3) / g.coords[1].as_fraction()) + 2)
        elements = set()
        combos = {}

        def rec(idx, vec, acc):
            if idx == len(gens):
                fc = acc.coords[0].as_fraction()
                if 0 <= fc < 3:
                    combos.setdefault(fc, []).append(acc)
                return
            for e in range(bounds[idx] + 1):
                rec(idx + 1, vec + [e], acc + e * gens[idx])

        rec(0, [], sg.spec.zero())
        for fc, vals in combos.items():
            tilde = min(v2.coords[1].as_fraction() for v2 in vals)
            for v2 in vals:
                if tilde <= v2.coords[1].as_fraction() < tilde + 3:
                    if v2 != sg.spec.zero():
                        elements.add(v2)
        assert set(got) == elements


class TestBoxAgainstOracle:
    def test_p3_windows_up_to_12(self):
        v = sigma_25()
        sg = box_semigroup(v)
        for y1 in range(13):
            for y2 in range(13):
                box = Box(y1, y2, v.t1(), v.t2())
                oracle = brute_box(sg, box)
                assert enumerate_box(sg, box) == oracle
                assert sg.count_box(box) == len(oracle)

    @pytest.mark.parametrize("y1,y2", [(6, 5), (4, 7)])
    def test_c5(self, y1, y2):
        v = ValuationDef.combined([2, 5], [1, 3])
        sg = box_semigroup(v)
        box = Box(y1, y2, v.t1(), v.t2())
        oracle = brute_box(sg, box)
        assert enumerate_box(sg, box) == oracle
        assert sg.count_box(box) == len(oracle)

    @pytest.mark.parametrize("spec,firsts,t2s", [
        # t2 with more halvings than the generators, two zero generators
        (DYADIC2, (Dyadic(3, 2), Dyadic(5, 1)), (1, Dyadic(1, 3), Dyadic(5, 2))),
        # a generator with both a rational and a sqrt2 part
        (QUAD2, (QuadReal(1, 1), QuadReal(0, Dyadic(3, 1))),
         (QuadReal(1, 0), QuadReal(Dyadic(1, 1), Dyadic(1, 2)))),
    ])
    def test_hand_built_generators(self, spec, firsts, t2s):
        sg = GenSemigroup(spec, [
            spec.vec(firsts[0], -1), spec.vec(firsts[1], Dyadic(-3, 1)),
            spec.vec(0, Dyadic(3, 1)), spec.vec(0, 2),
        ])
        for t2 in t2s:
            box = Box(5, 9, spec.vec(0, Dyadic(1, 1)), t2)
            oracle = brute_box(sg, box)
            assert enumerate_box(sg, box) == oracle
            assert sg.count_box(box) == len(oracle)

    def test_cap_counts_window_words(self):
        v = sigma_25()
        sg = box_semigroup(v)
        with pytest.raises(CapExceeded):
            sg.count_box(Box(40, 40, v.t1(), v.t2()), cap=5)
        # one window of 2^40 bits is refused before it is built
        with pytest.raises(CapExceeded):
            sg.count_box(Box(1 << 40, 1, v.t1(), v.t2()))


class TestBoxBound:
    def test_worked_example(self):
        report = box_bound_check(sigma_25(), 4, 4)
        assert report.count == 23
        assert report.bound == 64
        assert report.ok

    def test_tiny_window(self):
        report = box_bound_check(sigma_25(), 1, 1)
        assert report.ok and report.count <= 1

    def test_empty_box(self):
        report = box_bound_check(sigma_25(), 1, 0)
        assert report.count == 0 and report.ok
        with pytest.raises(UsageError, match="integers"):
            box_bound_check(sigma_25(), 2, 2.5)

    def test_bound_is_theorem1(self):
        report = box_bound_check(sigma_25(), 5, 7)
        assert report.bound == theorem1_bound((1, 2), (1, 1, 1), (5, 7), 1)

    def test_combined_form(self):
        v = ValuationDef.combined([2, 5], [1, 3])
        report = box_bound_check(v, 3, 3)
        assert report.ok
