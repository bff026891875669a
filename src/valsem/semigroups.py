"""The staircase semigroup S, its rank-2 extension T, and growth bounds.

S is the subsemigroup of the nonnegative rationals whose elements are
(2^m + j) + alpha / 2^((m+1)r) with 0 <= j < 2^m and
0 <= alpha < 2^((m+1)r); each unit interval [n, n+1[ with n = 2^m + j
contains exactly 2^((m+1)r) members.  T stacks scaled copies (1/c(m)) S
over the integers, with c(0) = 1 and c(m) = m for m >= 1.

All counting here is exact integer arithmetic; unit-interval counts use
the closed formula and window sums collapse whole power-of-two blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, factorial, floor
from typing import List, Sequence

from .errors import CapExceeded, UsageError, VerificationError
from .exact import Dyadic

DEFAULT_MEMBER_CAP = 1_000_000


def stair_decompose(n: int):
    """Unique m, j with n = 2^m + j and 0 <= j < 2^m."""
    if n <= 0:
        raise UsageError("staircase decomposition needs a positive integer")
    m = n.bit_length() - 1
    return m, n - (1 << m)


def stair_count(r: int, n: int) -> int:
    """#(S intersect [n, n+1[) = 2^((m+1)r); exact, with the sandwich
    n^r < count <= 2^r * n^r guaranteed by 2^m <= n < 2^(m+1)."""
    if r < 1:
        raise UsageError("staircase parameter r must be positive")
    m, _ = stair_decompose(n)
    count = 1 << ((m + 1) * r)
    if not n**r < count <= (n**r) << r:
        raise VerificationError(f"staircase count {count} at n={n} breaks its sandwich")
    return count


def stair_count_upto(r: int, hi: int) -> int:
    """#(S intersect [0, hi[) for integer hi, by whole-block sums."""
    if r < 1:
        raise UsageError("staircase parameter r must be positive")
    if hi <= 1:
        return 0
    total = 0
    m = 0
    while (1 << (m + 1)) <= hi:
        # full block [2^m, 2^(m+1)[: 2^m unit intervals of 2^((m+1)r) each
        total += 1 << (m + (m + 1) * r)
        m += 1
    lo = 1 << m
    if lo < hi:
        total += (hi - lo) << ((m + 1) * r)
    return total


def _to_fraction(x) -> Fraction:
    if isinstance(x, Dyadic):
        return x.as_fraction()
    return Fraction(x)


def stair_members(r: int, lo, hi, cap: int = DEFAULT_MEMBER_CAP) -> List[Dyadic]:
    """All members of S in [lo, hi[, exact dyadics, strictly increasing."""
    if r < 1:
        raise UsageError("staircase parameter r must be positive")
    lo = _to_fraction(lo)
    hi = _to_fraction(hi)
    if not 0 <= lo < hi:
        raise UsageError("window must satisfy 0 <= lo < hi")

    def span(n: int):
        # k and the numerators [a_lo, a_hi[ of the members n + a/2^k in the window
        k = (stair_decompose(n)[0] + 1) * r
        scale = 1 << k
        return k, max(0, ceil((lo - n) * scale)), min(scale, ceil((hi - n) * scale))

    n_lo, n_hi = floor(lo), ceil(hi)
    # whole unit intervals strictly inside the cover [n_lo, n_hi[, then
    # the members of its first and last interval, counted exactly
    count = max(0, stair_count_upto(r, n_hi - 1) - stair_count_upto(r, n_lo + 1))
    for n in {n_lo, n_hi - 1} - {0}:
        _, a_lo, a_hi = span(n)
        count += max(0, a_hi - a_lo)
    if count > cap:
        raise CapExceeded("staircase window too large to enumerate", cap)
    out: List[Dyadic] = []
    for n in range(max(1, n_lo), n_hi):
        k, a_lo, a_hi = span(n)
        base = n << k
        out.extend(Dyadic(base + a, k) for a in range(a_lo, a_hi))
    return out


_BERNOULLI: List[Fraction] = [Fraction(1)]


def _bernoulli(m: int) -> Fraction:
    """B_m with the B_1 = -1/2 convention, via the defining recurrence."""
    while len(_BERNOULLI) <= m:
        j = len(_BERNOULLI)
        acc = sum(comb(j + 1, i) * _BERNOULLI[i] for i in range(j))
        _BERNOULLI.append(-acc / (j + 1))
    return _BERNOULLI[m]


def _faulhaber(r: int) -> List[Fraction]:
    """The coefficients c_k, k = 0..r+1, of sum_{n=1}^{y-1} n^r = sum_k c_k y^k
    for r >= 1: c_(r+1-j) = C(r+1, j) B_j / (r+1) (Knuth 1993, "Johann
    Faulhaber and sums of powers")."""
    coeffs = [Fraction(0)] * (r + 2)
    for j in range(r + 1):
        coeffs[r + 1 - j] = comb(r + 1, j) * _bernoulli(j) / (r + 1)
    return coeffs


def _integral(total: Fraction, what: str) -> int:
    if total.denominator != 1:
        raise VerificationError(f"{what} is not an integer")
    return total.numerator


def powersum(y: int, r: int) -> int:
    """f(y) = sum_{n=1}^{y-1} n^r, exact, by Faulhaber's formula."""
    if y < 1:
        raise UsageError("powersum needs y >= 1")
    total = sum(c * y**k for k, c in enumerate(_faulhaber(r)))
    return _integral(total, f"Faulhaber sum for y={y}, r={r}")


def t_box_count(r: int, y1: int, y2: int) -> int:
    """#(T intersect ([0, y2[ x [0, y1[)), in O(log(y1*y2)) steps.

    Slice 0 holds S below y1 (c(0) = 1) and slice m >= 1 holds S below
    m*y1.  On 2^M <= h < 2^(M+1), #(S intersect [0, h[) is affine in h:
    #(S intersect [0, 2^M[) + (h - 2^M) * 2^((M+1)r).  So the slices whose
    m*y1 has bit length M + 1 sum to an arithmetic series.
    """
    if y1 < 1 or y2 < 1:
        raise UsageError("t_box_count needs y1, y2 >= 1")
    total = stair_count_upto(r, y1)
    M = y1.bit_length() - 1
    below = stair_count_upto(r, 1 << M)
    m_lo = 1
    while m_lo < y2:
        # m_lo*y1 >= 2^M, and every m up to m_hi has m*y1 < 2^(M+1)
        m_hi = min(y2 - 1, ((2 << M) - 1) // y1)
        k = m_hi - m_lo + 1
        total += k * below + ((y1 * (m_lo + m_hi) * k // 2 - (k << M)) << ((M + 1) * r))
        below += 1 << (M + (M + 1) * r)
        M += 1
        m_lo = m_hi + 1
    return total


@dataclass
class ContradictionRow:
    y2: int
    lower_bound: int
    exact_count: int
    claimed_bound: int
    crossed: bool


def contradiction_table(
    r: int, y1: int, y2_list: Sequence[int], d: int
) -> List[ContradictionRow]:
    """Rows comparing the exact slice-sum lower bound against the claimed
    polynomial bound d * y1^(r+1) * y2; a crossed row certifies that no
    constant d can bound the box counts with exponent 1 in y2.

    The lower bound is f(y1) + sum_{i=1}^{y2-1} f(i*y1), which never
    exceeds the exact box count.  With f(y) = sum_k c_k y^k, the sum over
    i is sum_k c_k y1^k f_k(y2), where f_k is the power sum of exponent k.
    """
    if r < 1 or y1 < 1 or d < 1:
        raise UsageError("contradiction_table needs r, y1, d >= 1")
    coeffs = _faulhaber(r)
    rows = []
    for y2 in y2_list:
        if y2 < 1:
            raise UsageError("y2 values must be positive")
        slices = sum(coeffs[k] * y1**k * powersum(y2, k) for k in range(1, r + 2))
        lower = powersum(y1, r) + _integral(slices, f"slice sum for y1={y1}, y2={y2}, r={r}")
        count = t_box_count(r, y1, y2)
        bound = d * y1 ** (r + 1) * y2
        rows.append(ContradictionRow(y2, lower, count, bound, lower > bound))
    return rows


def theorem1_bound(
    dims: Sequence[int], mults: Sequence[int], ys: Sequence[int], epsilon
) -> Fraction:
    """Exact value of (1 + eps) * prod(mults) / prod(dims!) * prod(y_i^dim_i).

    ``mults`` carries one multiplicity per center including the base
    level, so it is one entry longer than ``dims``.
    """
    if len(mults) != len(dims) + 1 or len(ys) != len(dims):
        raise UsageError("expected len(mults) == len(dims) + 1 == len(ys) + 1")
    if any(d < 0 for d in dims) or any(e < 1 for e in mults):
        raise UsageError("dims must be >= 0 and mults >= 1")
    value = (1 + Fraction(epsilon)) if epsilon else Fraction(1)
    for e in mults:
        value *= e
    for d, y in zip(dims, ys):
        value = value * Fraction(y**d, factorial(d))
    return value
