import random
from fractions import Fraction

import pytest

from valsem.errors import CapExceeded, UsageError
from valsem.exact import DYADIC2, QUAD2, Dyadic, QuadReal, project
from valsem.genseq import ValuationDef, eta
from valsem.gensemi import Box, GenSemigroup, box_bound_check, box_semigroup
from valsem.semigroups import theorem1_bound


def brute_tilde(gens, lam: Fraction):
    """Minimum second coordinate over all exponent vectors of the
    positive-first-coordinate generators summing to lam; None if lam is
    not representable.  Independent of the knapsack implementation."""
    pos = [
        (g.coords[0].as_fraction(), g.coords[1].as_fraction())
        for g in gens
        if g.coords[0].as_fraction() > 0
    ]

    best = [None]

    def rec(idx, rem, sc):
        if rem == 0:
            if best[0] is None or sc < best[0]:
                best[0] = sc
            return
        if idx == len(pos):
            return
        fc, gsc = pos[idx]
        e = 0
        while e * fc <= rem:
            rec(idx + 1, rem - e * fc, sc + e * gsc)
            e += 1

    rec(0, lam, Fraction(0))
    return best[0]


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
                assert entry.tilde.coords[1].as_fraction() == oracle
            checked += 1

    def test_projection_property(self):
        sg = box_semigroup(sigma_25())
        for lam in (Dyadic(1), Dyadic(5, 1), Dyadic(21, 2), Dyadic(7)):
            entry = sg.tilde(lam)
            if entry is None:
                continue
            assert project(entry.tilde, 1).coords[0] == lam

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


class TestGenSemigroupBasics:
    def test_generator_validation(self):
        with pytest.raises(UsageError):
            GenSemigroup(DYADIC2, [DYADIC2.vec(-1, 0)])
        with pytest.raises(UsageError):
            GenSemigroup(DYADIC2, [DYADIC2.vec(0, 0)])
        with pytest.raises(UsageError):
            GenSemigroup(DYADIC2, [DYADIC2.vec(0, -1)])
        sg = GenSemigroup(DYADIC2, [DYADIC2.vec(1, -5), DYADIC2.vec(0, 1)])
        assert len(sg.pos) == 1 and len(sg.zeros) == 1

    def test_dedup_and_sort(self):
        a, b = DYADIC2.vec(1, 0), DYADIC2.vec(0, 1)
        sg = GenSemigroup(DYADIC2, [a, b, a])
        assert sg.generators == [b, a]


class TestEnumerateBox:
    def test_two_generator_example(self):
        sg = GenSemigroup(DYADIC2, [DYADIC2.vec(0, 1), DYADIC2.vec(1, 0)])
        box = Box(2, 2, DYADIC2.vec(0, 1), 1)
        got = sg.enumerate_box(box)
        assert got == [DYADIC2.vec(0, 1), DYADIC2.vec(1, 0), DYADIC2.vec(1, 1)]
        assert sg.count_box(box) == 3

    def test_empty_generators(self):
        sg = GenSemigroup(DYADIC2, [])
        box = Box(3, 3, DYADIC2.vec(0, 1), 1)
        assert sg.enumerate_box(box) == []

    def test_empty_windows(self):
        sg = GenSemigroup(DYADIC2, [DYADIC2.vec(1, 0)])
        assert sg.enumerate_box(Box(0, 3, DYADIC2.vec(0, 1), 1)) == []
        assert sg.enumerate_box(Box(3, 0, DYADIC2.vec(0, 1), 1)) == []

    def test_t1_must_be_level_one(self):
        with pytest.raises(UsageError):
            Box(1, 1, DYADIC2.vec(1, 0), 1)

    def test_output_sorted_unique_and_closed(self):
        v = sigma_25()
        sg = box_semigroup(v)
        box = Box(6, 6, v.t1(), v.t2())
        got = sg.enumerate_box(box)
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
        got = sg.enumerate_box(box)
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

    def test_bound_is_theorem1(self):
        report = box_bound_check(sigma_25(), 5, 7)
        assert report.bound == theorem1_bound((1, 2), (1, 1, 1), (5, 7), 1)

    def test_combined_form(self):
        v = ValuationDef.combined([2, 5], [1, 3])
        report = box_bound_check(v, 3, 3)
        assert report.ok
