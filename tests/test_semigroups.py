import random
import time
from fractions import Fraction
from itertools import product as iproduct
from math import factorial

import pytest

from valsem import semigroups
from valsem.errors import CapExceeded, UsageError
from valsem.exact import Dyadic
from valsem.semigroups import (
    ContradictionRow,
    contradiction_table,
    powersum,
    stair_count,
    stair_count_upto,
    stair_decompose,
    stair_members,
    t_box_count,
    theorem1_bound,
)

from conftest import hs_length


def members_oracle(r, lo, hi):
    """Direct enumeration from the definition, Fractions only."""
    out = []
    n = 1
    while n < hi:
        m = n.bit_length() - 1
        k = (m + 1) * r
        for a in range(1 << k):
            val = Fraction(n) + Fraction(a, 1 << k)
            if lo <= val < hi:
                out.append(val)
        n += 1
    return out


def c_of(i):
    """Scaling denominators for T: c(0) = 1, c(i) = i for i >= 1."""
    if i < 0:
        raise UsageError("c(i) needs i >= 0")
    return 1 if i == 0 else i


def scaled_count(c, r, y):
    """#((1/c) S intersect [0, y[) = #(S intersect [0, c*y[)."""
    if c < 1 or y < 0:
        raise UsageError("scaled_count needs c >= 1 and y >= 0")
    return stair_count_upto(r, c * y)


def t_box_oracle(r, y1, y2_max):
    """t_box_count(r, y1, y2) for y2 = 1..y2_max, summed slice by slice."""
    out, total = [], 0
    for m in range(y2_max):
        total += scaled_count(c_of(m), r, y1)
        out.append(total)
    return out


def lower_bound_oracle(r, y1, y2_max):
    """f(y1) + sum_{i=1}^{y2-1} f(i*y1) for y2 = 1..y2_max, one power sum per i."""
    out, total = [], powersum(y1, r)
    for i in range(1, y2_max + 1):
        out.append(total)
        total += powersum(i * y1, r)
    return out


def stair_member(r, q):
    """Membership in S by the defining decomposition, Fractions only."""
    q = q.as_fraction() if isinstance(q, Dyadic) else Fraction(q)
    if q < 1:
        return False
    n = q.numerator // q.denominator
    m, _ = stair_decompose(n)
    scaled = (q - n) * (1 << ((m + 1) * r))
    return scaled.denominator == 1


class TestStaircase:
    def test_decompose(self):
        assert stair_decompose(1) == (0, 0)
        assert stair_decompose(5) == (2, 1)
        assert stair_decompose(64) == (6, 0)
        with pytest.raises(UsageError):
            stair_decompose(0)

    def test_counts_examples(self):
        assert stair_count(1, 1) == 2
        assert stair_count(1, 5) == 8
        assert stair_count(3, 4) == 512

    def test_count_matches_enumeration(self):
        for r in (1, 2):
            for n in range(1, 65):
                assert stair_count(r, n) == len(stair_members(r, n, n + 1))

    def test_sandwich(self):
        for r in (1, 2, 3):
            for n in range(1, 4097):
                c = stair_count(r, n)
                assert n**r < c <= (2**r) * n**r

    def test_members_examples(self):
        assert [m.as_fraction() for m in stair_members(1, 1, 2)] == [
            Fraction(1),
            Fraction(3, 2),
        ]
        assert [m.as_fraction() for m in stair_members(1, 2, 3)] == [
            Fraction(2),
            Fraction(9, 4),
            Fraction(5, 2),
            Fraction(11, 4),
        ]
        assert stair_members(1, 0, 1) == []

    def test_members_match_oracle(self):
        for r in (1, 2):
            got = [m.as_fraction() for m in stair_members(r, Fraction(3, 2), 9)]
            assert got == members_oracle(r, Fraction(3, 2), 9)

    def test_members_cap(self):
        with pytest.raises(CapExceeded):
            stair_members(3, 0, 4096, cap=1000)

    def test_members_cap_counts_the_window(self):
        # [3000, 3001[ holds 2^12 members, far fewer than [0, 3001[
        got = stair_members(1, 3000, 3001)
        assert len(got) == stair_count(1, 3000) == 4096
        assert got[0] == 3000 and got[-1] == Dyadic((3001 << 12) - 1, 12)
        with pytest.raises(CapExceeded):
            stair_members(1, 3000, 3001, cap=4095)
        # 2^60 members: refused before any is built
        with pytest.raises(CapExceeded):
            stair_members(1, Fraction(1, 3), 1 << 30)

    def test_members_cap_counts_partial_intervals(self, monkeypatch):
        # [6001/2, 3001[ is the upper half of [3000, 3001[: 2^11 members
        got = stair_members(1, Fraction(6001, 2), 3001, cap=3000)
        assert len(got) == 2048 and got[0] == Fraction(6001, 2)

        class Unbuilt(Dyadic):
            __slots__ = ()

            def __init__(self, *_):
                raise AssertionError("a member was built before the cap check")

        with monkeypatch.context() as m:
            m.setattr(semigroups, "Dyadic", Unbuilt)
            with pytest.raises(CapExceeded):
                stair_members(1, Fraction(6001, 2), 3001, cap=2047)
        # partial intervals at both ends and whole ones in between
        for lo, hi in ((Fraction(5, 2), Fraction(27, 4)), (Fraction(1, 3), Fraction(7, 3))):
            n = len(stair_members(2, lo, hi))
            assert len(stair_members(2, lo, hi, cap=n)) == n
            with pytest.raises(CapExceeded):
                stair_members(2, lo, hi, cap=n - 1)

    def test_membership_and_closure(self):
        rng = random.Random(9)
        for r in (1, 2):
            members = stair_members(r, 0, 9)
            member_set = {m.as_fraction() for m in members}
            for m in members:
                assert stair_member(r, m)
            for _ in range(200):
                a, b = rng.choice(members), rng.choice(members)
                s = a + b
                assert stair_member(r, s)
                if s.as_fraction() < 9:
                    # double-check against the enumerated window
                    assert s.as_fraction() in member_set or s.as_fraction() >= 9
            assert not stair_member(r, Fraction(1, 2))
            assert not stair_member(r, Fraction(1, 3))

    def test_count_upto_matches_enumeration(self):
        for r in (1, 2):
            for hi in (1, 2, 3, 5, 9, 16, 17):
                assert stair_count_upto(r, hi) == len(members_oracle(r, 0, hi))

    def test_cumulative_sandwich(self):
        for r in (1, 2, 3):
            for y in range(2, 513):
                c = stair_count_upto(r, y)
                f = powersum(y, r)
                assert f < c <= (2**r) * f


class TestPowersum:
    def test_examples(self):
        assert powersum(4, 1) == 6
        assert powersum(1, 3) == 0

    def test_matches_naive(self):
        rng = random.Random(4)
        for _ in range(50):
            y, r = rng.randint(1, 60), rng.randint(1, 6)
            assert powersum(y, r) == sum(n**r for n in range(1, y))


class TestTCounts:
    def test_c_of(self):
        assert [c_of(i) for i in range(4)] == [1, 1, 2, 3]
        with pytest.raises(UsageError):
            c_of(-1)

    def test_scaled_count_window(self):
        assert scaled_count(2, 1, 2) == stair_count_upto(1, 4) == 10
        assert scaled_count(5, 1, 1) == stair_count_upto(1, 5)

    def test_t_box_count_examples(self):
        assert t_box_count(1, 4, 1) == 10
        assert t_box_count(1, 4, 2) == 20

    def test_t_box_count_matches_scaled_enumeration(self):
        # each slice m holds (1/c(m)) S; count members below y1 directly
        for y1, y2 in ((1, 10), (4, 5), (3, 8)):
            expected = 0
            for m in range(y2):
                c = c_of(m)
                expected += sum(
                    1 for q in members_oracle(1, 0, c * y1) if Fraction(q, c) < y1
                )
            assert t_box_count(1, y1, y2) == expected

    def test_closed_form_matches_slice_sums(self):
        for r in (1, 2, 3):
            for y1 in range(1, 65):
                got = [t_box_count(r, y1, y2) for y2 in range(1, 65)]
                assert got == t_box_oracle(r, y1, 64), (r, y1)

    def test_monotone(self):
        prev = 0
        for y2 in range(1, 20):
            cur = t_box_count(1, 6, y2)
            assert cur >= prev
            prev = cur
        prev = 0
        for y1 in range(1, 20):
            cur = t_box_count(2, y1, 6)
            assert cur >= prev
            prev = cur


class TestContradiction:
    def test_lower_bound_below_exact(self):
        rows = contradiction_table(1, 8, [1, 2, 4, 8, 16], 10)
        for row in rows:
            assert row.lower_bound <= row.exact_count

    def test_crossover_flagged(self):
        rows = contradiction_table(1, 64, [2**k for k in range(13)], 10**6)
        assert any(r.crossed for r in rows)
        for r in rows:
            assert r.crossed == (r.lower_bound > r.claimed_bound)

    def test_closed_form_matches_slice_sums(self):
        y2s = list(range(1, 65))
        for r in (1, 2, 3):
            for y1 in range(1, 65):
                rows = contradiction_table(r, y1, y2s, 10)
                assert [row.y2 for row in rows] == y2s
                assert [row.lower_bound for row in rows] == lower_bound_oracle(r, y1, 64)
                assert [row.exact_count for row in rows] == t_box_oracle(r, y1, 64)

    def test_cost_does_not_grow_with_y2(self):
        # 65 rows up to y2 = 2^64 in under 50 ms (best of three); summing
        # the slices one by one would not finish
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            rows = contradiction_table(3, 1024, [2**k for k in range(65)], 10**6)
            elapsed.append(time.perf_counter() - t0)
        assert len(rows) == 65 and rows[-1].crossed
        assert all(row.lower_bound <= row.exact_count for row in rows)
        assert min(elapsed) < 0.05

    def test_single_row_no_crossover(self):
        rows = contradiction_table(1, 64, [1], 10**6)
        assert len(rows) == 1 and not rows[0].crossed


class TestBounds:
    def test_hs_length_examples(self):
        assert hs_length(3, 2) == 4
        assert hs_length(3, 3) == 10
        assert hs_length(1, 7) == 7
        assert hs_length(4, 0) == 0

    def test_hs_length_monomial_oracle(self):
        for d in range(1, 5):
            for y in range(13):
                count = sum(
                    1
                    for exps in iproduct(range(y), repeat=d)
                    if sum(exps) < y
                )
                assert hs_length(d, y) == count

    def test_theorem1_examples(self):
        for y1, y2 in ((4, 4), (3, 7)):
            assert theorem1_bound((1, 2), (1, 1, 1), (y1, y2), 1) == y1 * y2**2
        assert theorem1_bound((0, 0), (3, 4, 1), (5, 9), 0) == 12
        d, y = 3, 5
        assert theorem1_bound((d,), (1, 1), (y,), Fraction(1, 2)) == Fraction(
            3, 2
        ) * Fraction(y**d, factorial(d))

    def test_theorem1_validation(self):
        with pytest.raises(UsageError):
            theorem1_bound((1, 2), (1, 1), (4, 4), 1)
        with pytest.raises(UsageError):
            theorem1_bound((1,), (1, 0), (4,), 1)
