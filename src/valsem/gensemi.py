"""Finitely generated value sub-semigroups: tilde values and box counts.

A GenSemigroup is the sub-semigroup of the nonnegative part of a rank-2
lex group generated by a finite list of vectors.  Both searches run on
one common-denominator integer rescaling of the generators (two
simultaneous integer constraints when first coordinates carry a sqrt(2)
part).

The tilde value of a first-coordinate lambda is the least second
coordinate among semigroup elements whose first coordinate equals
lambda.  It is found by an exact depth-first search over exponent
vectors, pruned where even the least second coordinate per unit of
first coordinate among the remaining generators cannot beat the best
value found; the state cap counts the visited search states.  When no
generator has both a rational and a sqrt2 part, as on every valuation
here, the two parts of lambda share no generator: the search runs once
on the rational generators and once on the sqrt2 ones, the value is the
sum of the two optima, and the states of both count against one cap.
The witness stays the lexicographically greatest minimiser, because on
a product of minimiser sets two elements first differ at a position of
one part only, so the greatest is the part-wise greatest.

A pseudo-box count is a forward DP over the first coordinates reachable
under the box bound: each holds its tilde value and a bit mask of the
second coordinates it reaches inside its window.  The state cap counts
the cell updates, each weighed by the 64-bit words of the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import CapExceeded, UsageError
from .exact import GroupSpec, LexVec, _decode, _lattice, _sign_surd
from .semigroups import theorem1_bound

DEFAULT_STATE_CAP = 1_000_000


@dataclass(frozen=True)
class TildeEntry:
    tilde: LexVec
    witness: Tuple[int, ...]  # exponents over the semigroup's generators


@dataclass(frozen=True)
class Box:
    """Rank-2 pseudo-box: first coordinate in [0, t2*y2[, second
    coordinate in [tilde, tilde + y1 * sc(t1)[ for each first coordinate.

    Requires t1 to have first coordinate zero (strict center inclusion),
    so the level-1 window moves only the second coordinate.
    """

    y1: int
    y2: int
    t1: LexVec
    t2: object

    def __post_init__(self):
        if not (isinstance(self.y1, int) and isinstance(self.y2, int)):
            raise UsageError("box windows must be integers")
        if self.y1 < 0 or self.y2 < 0:
            raise UsageError("box windows must be nonnegative")
        if self.t1.first:
            raise UsageError("t1 must lie in the level-1 convex subgroup")
        if _lattice(self.t2) is None:
            raise UsageError("t2 must be a dyadic or quadratic scalar")


class GenSemigroup:
    """Sub-semigroup of the nonnegative part of a rank-2 lex group.

    The searches run on one integer encoding built here: a positive
    generator is (p, q, s) with first coordinate (p + q*sqrt2)/2^fk and
    second coordinate s/2^sk, a zero-first-coordinate generator is s.
    """

    def __init__(self, spec: GroupSpec, generators: List[LexVec]):
        seen = []  # sorted, each value once
        for g in sorted(spec.vec(g.first, g.second) for g in generators):
            if not seen or g != seen[-1]:
                seen.append(g)
        self.spec = spec
        self.generators = seen
        fcs = [_lattice(g.first) for g in seen]
        scs = [g.second for g in seen]
        self._fk = max((k for _, _, k in fcs), default=0)
        self._sk = max((sc.k for sc in scs), default=0)
        pos_at = []  # index in generators of each positive generator
        self._pos_ints, self._zero_ints = [], []
        for i, (g, (p, q, k), sc) in enumerate(zip(seen, fcs, scs)):
            if p < 0 or q < 0:
                raise UsageError(f"generator {g} has a negative first-coordinate part")
            s = sc.num << (self._sk - sc.k)
            if p or q:
                pos_at.append(i)
                self._pos_ints.append((p << (self._fk - k), q << (self._fk - k), s))
            elif s <= 0:
                raise UsageError(f"generator {g} with zero first coordinate must be positive")
            else:
                self._zero_ints.append(s)
        # the independent parts of a tilde search: the rational and the
        # sqrt2 generators, unless one generator has both parts; each is
        # (takes p, takes q, positions in generators, (p, q, s) triples,
        # least-ratio suffix table)
        if any(p and q for p, q, _ in self._pos_ints):
            axes = [(True, True)]
        else:
            axes = [(True, False), (False, True)]
        self._parts = []
        for take_p, take_q in axes:
            part = [(i, g) for i, g in zip(pos_at, self._pos_ints)
                    if take_p and g[0] or take_q and g[1]]
            # for each j, the generator among the part's j.. with the least
            # ratio s/(p + q*sqrt2), which bounds what a tilde search can add
            least_ratio = []
            for _, g in reversed(part):
                least = least_ratio[-1] if least_ratio else g
                if _sign_surd(g[2] * least[0] - least[2] * g[0], g[2] * least[1] - least[2] * g[1]) < 0:
                    least = g
                least_ratio.append(least)
            least_ratio.reverse()
            self._parts.append((take_p, take_q, [i for i, _ in part], [g for _, g in part], least_ratio))

    def _scaled_pos(self, k: int):
        """Positive generators with first coordinates over 2^max(fk, k),
        and that exponent: a box bound may have more halvings than the
        generators."""
        if k <= self._fk:
            return self._pos_ints, self._fk
        d = k - self._fk
        return [(p << d, q << d, s) for p, q, s in self._pos_ints], k

    # -- tilde ----------------------------------------------------------

    def tilde(self, lam, cap: int = DEFAULT_STATE_CAP) -> Optional[TildeEntry]:
        """Least semigroup value (with 0) projecting to lambda, or None
        if lambda is not a first coordinate of the projected semigroup.

        Generators with first coordinate zero never appear in a witness:
        their second coordinates are positive, so dropping them only
        lowers the objective.  Of the exponent vectors attaining the least
        value, the witness is the lexicographically greatest.

        When no generator has both a rational and a sqrt2 part, the
        rational generators meet the rational part of lambda and the
        sqrt2 generators its sqrt2 part, so the same search runs once per
        part and the value is the sum of the part optima.  The minimisers
        are then the products of the part minimisers, and at the first
        position where two of them differ only that position's part
        differs: the lexicographically greatest is the part-wise greatest,
        placed at its generator positions.  The states of every part
        count against the one cap.
        """
        target = _lattice(lam)
        if target is None:
            return None
        tp, tq, tk = target
        if tp < 0 or tq < 0 or tk > self._fk:
            return None  # sums of the generators never leave their lattice
        if not (tp or tq):
            return TildeEntry(self.spec.zero(), (0,) * len(self.generators))
        fk = self._fk
        tp <<= fk - tk
        tq <<= fk - tk
        searches = [(at, gens, least_ratio, tp if take_p else 0, tq if take_q else 0)
                    for take_p, take_q, at, gens, least_ratio in self._parts
                    if take_p and tp or take_q and tq]
        if any(not gens for _, gens, _, _, _ in searches):
            return None  # a part of lambda that no generator reaches
        states = 0

        def search(gens, least_ratio, tp, tq):
            """Least (second coordinate, exponents over gens) of the
            combinations of gens summing to (tp, tq), or None."""
            n = len(gens)
            best: Optional[Tuple[int, Tuple[int, ...]]] = None

            def rec(idx, rem_p, rem_q, sc, exps):
                nonlocal states, best
                states += 1
                if states > cap:
                    raise CapExceeded("tilde knapsack state cap exceeded", cap)
                if rem_p == 0 and rem_q == 0:
                    if best is None or sc < best[0]:
                        best = (sc, tuple(exps) + (0,) * (n - len(exps)))
                    return
                if idx == n:
                    return
                if best is not None:
                    # every completion adds at least rho * (rem_p + rem_q*sqrt2)
                    # with rho = ks/(kp + kq*sqrt2); one that cannot beat best
                    # strictly would not replace it
                    kp, kq, ks = least_ratio[idx]
                    gap = best[0] - sc
                    if _sign_surd(ks * rem_p - gap * kp, ks * rem_q - gap * kq) >= 0:
                        return
                gp, gq, gsc = gens[idx]
                if gp:
                    e_max = rem_p // gp
                    if gq:
                        e_max = min(e_max, rem_q // gq)
                else:
                    e_max = rem_q // gq
                for e in range(e_max, -1, -1):
                    exps.append(e)
                    rec(idx + 1, rem_p - e * gp, rem_q - e * gq, sc + e * gsc, exps)
                    exps.pop()

            rec(0, tp, tq, 0, [])
            return best

        total = 0
        witness = [0] * len(self.generators)
        for at, gens, least_ratio, part_p, part_q in searches:
            best = search(gens, least_ratio, part_p, part_q)
            if best is None:
                return None
            sc, exps = best
            total += sc
            for i, e in zip(at, exps):
                witness[i] = e
        return TildeEntry(_decode(self.spec.quad, tp, tq, fk, total, self._sk), tuple(witness))

    # -- boxes ----------------------------------------------------------

    def _box_cells(self, box: Box, cap: int):
        """Every reachable first coordinate of the box with its window of
        second coordinates, by a forward DP over the lattice.

        Returns (fk, sk, m, cells).  A key of cells is p*m + q for the
        first coordinate (p + q*sqrt2)/2^fk; its value (lo, mask) has
        lo = tilde over 2^sk, and bit j of mask set iff lo + j is a
        second coordinate of the semigroup there, for j below the
        window width y1*sc(t1).  The zero element is bit 0 at key 0.

        The DP runs one generator at a time over the reached points, as
        an unbounded knapsack: each point passes its window on to the
        point one generator further, up the chain of that generator.
        Clipping to the window is exact because tilde(lam) is at most
        tilde(lam - g) + sc(g).  Every cell update counts the 64-bit
        words of its window against cap.
        """
        t1 = box.t1.second
        sk = max(self._sk, t1.k)
        shift = sk - self._sk
        width = box.y1 * t1.num << (sk - t1.k)
        tp, tq, tk = _lattice(box.t2)
        gens, fk = self._scaled_pos(tk)
        hp, hq = box.y2 * tp << (fk - tk), box.y2 * tq << (fk - tk)
        if width <= 0 or _sign_surd(hp, hq) <= 0:
            return fk, sk, 1, {}
        gens = [g for g in gens if _sign_surd(hp - g[0], hq - g[1]) > 0]
        # q stays below max(hp, 0) + max(hq, 0) under the bound
        m = max(hp, 0) + max(hq, 0) + 1 if any(gq for _, gq, _ in gens) else 1
        # first coordinate 0: the zero-generator sums, closed by shift-or;
        # doubling the step closes under all multiples of one generator
        steps = [z << shift << i for z in self._zero_ints
                 for i in range(((width - 1) // (z << shift)).bit_length())]
        words = (width + 63) >> 6
        states = words * (1 + len(steps))
        if states > cap:  # before any mask as wide as the window exists
            raise CapExceeded("box count state cap exceeded", cap)
        full = (1 << width) - 1
        mask = 1
        for step in steps:
            mask = (mask | mask << step) & full
        cells: Dict[int, Tuple[int, int]] = {0: (0, mask)}

        for gp, gq, gs in gens:
            gk = gp * m + gq
            s = gs << shift
            walked = set()
            for key in sorted(cells):
                if key in walked:
                    continue
                lo, mask = cells[key]
                p, q = divmod(key, m)
                while True:
                    p += gp
                    q += gq
                    if _sign_surd(hp - p, hq - q) <= 0:
                        break
                    states += words
                    if states > cap:
                        raise CapExceeded("box count state cap exceeded", cap)
                    key += gk
                    walked.add(key)
                    lo += s
                    old = cells.get(key)
                    if old is not None:  # merge; a shift past the window drops a mask
                        old_lo, old_mask = old
                        if old_lo < lo:
                            d = lo - old_lo
                            mask = old_mask | (mask << d & full if d < width else 0)
                            lo = old_lo
                        elif old_lo - lo < width:
                            mask |= old_mask << (old_lo - lo) & full
                    cells[key] = (lo, mask)
        return fk, sk, m, cells

    def count_box(self, box: Box, cap: int = DEFAULT_STATE_CAP) -> int:
        """The number of distinct nonzero semigroup elements inside the box."""
        cells = self._box_cells(box, cap)[3]
        return sum(mask.bit_count() for _, mask in cells.values()) - bool(cells)


@dataclass
class BoxBoundReport:
    y1: int
    y2: int
    count: int
    bound: Fraction
    ok: bool


def box_semigroup(vdef) -> GenSemigroup:
    """The sub-semigroup generated by nu(z), the family roots, and every
    family member whose weight data is defined."""
    return GenSemigroup(vdef.group, [value for _, value in vdef.generators()])


def box_bound_check(vdef, y1: int, y2: int, cap: int = DEFAULT_STATE_CAP) -> BoxBoundReport:
    """Compare the enumerated sub-semigroup count over the pseudo-box
    with the polynomial growth bound of Theorem 1 for dimensions (1, 2),
    multiplicities (1, 1, 1) and epsilon 1; a count above the bound
    would falsify consistency."""
    sg = box_semigroup(vdef)
    box = Box(y1, y2, vdef.t1(), vdef.t2())
    count = sg.count_box(box, cap)
    bound = theorem1_bound((1, 2), (1, 1, 1), (y1, y2), 1)
    return BoxBoundReport(y1, y2, count, bound, Fraction(count) <= bound)
