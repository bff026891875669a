"""Finitely generated value sub-semigroups: enumeration, tilde, boxes.

A GenSemigroup is the sub-semigroup of the nonnegative part of a rank-2
lex group generated by a finite list of vectors.  The tilde value of a
first-coordinate lambda is the least second coordinate among semigroup
elements whose first coordinate equals lambda; it is computed by an
exact bounded knapsack over a common-denominator integer rescaling
(two simultaneous integer constraints when first coordinates carry a
sqrt(2) part).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import CapExceeded, UsageError
from .exact import Dyadic, GroupSpec, LexVec, QuadReal, _sign_surd
from .semigroups import theorem1_bound

DEFAULT_STATE_CAP = 1_000_000


def _lattice(x) -> Optional[Tuple[int, int, int]]:
    """A first coordinate as integers (p, q, k) with value
    (p + q*sqrt2)/2^k, or None for a rational that is not dyadic."""
    if isinstance(x, Fraction) and x.denominator & (x.denominator - 1):
        return None
    x = QuadReal._coerce(x)
    if x is NotImplemented:
        raise UsageError("first coordinate must be a dyadic or quadratic scalar")
    r, s = x.rat, x.surd
    k = max(r.k, s.k)
    return r.num << (k - r.k), s.num << (k - s.k), k


@dataclass(frozen=True)
class TildeEntry:
    lam: object  # first-coordinate scalar
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
        if self.y1 < 0 or self.y2 < 0:
            raise UsageError("box windows must be nonnegative")
        if self.t1.coords[0]:
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
        if spec.rank != 2:
            raise UsageError("GenSemigroup supports rank-2 groups")
        if spec.kinds[1] == "quad":
            raise UsageError("second coordinate must be dyadic")
        seen = []
        for g in generators:
            if g.spec != spec:
                raise UsageError("generator does not conform to the group spec")
            if g not in seen:
                seen.append(g)
        seen.sort()
        self.spec = spec
        self.generators = seen
        fcs = [_lattice(g.coords[0]) for g in seen]
        scs = [Dyadic._coerce(g.coords[1]) for g in seen]
        self._fk = max((k for _, _, k in fcs), default=0)
        self._sk = max((sc.k for sc in scs), default=0)
        self.pos, self.zeros = [], []
        self._pos_at = []  # index in generators of each positive generator
        self._pos_ints, self._zero_ints = [], []
        for i, (g, (p, q, k), sc) in enumerate(zip(seen, fcs, scs)):
            if p < 0 or q < 0:
                raise UsageError(f"generator {g} has a negative first-coordinate part")
            s = sc.num << (self._sk - sc.k)
            if p or q:
                self.pos.append(g)
                self._pos_at.append(i)
                self._pos_ints.append((p << (self._fk - k), q << (self._fk - k), s))
            elif s <= 0:
                raise UsageError(f"generator {g} with zero first coordinate must be positive")
            else:
                self.zeros.append(g)
                self._zero_ints.append(s)

    def _scaled_pos(self, k: int):
        """Positive generators with first coordinates over 2^max(fk, k),
        and that exponent."""
        if k <= self._fk:
            return self._pos_ints, self._fk
        d = k - self._fk
        return [(p << d, q << d, s) for p, q, s in self._pos_ints], k

    def _decode(self, p: int, q: int, fk: int, s: int, sk: int) -> LexVec:
        if self.spec.kinds[0] == "quad":
            fc = QuadReal(Dyadic(p, fk), Dyadic(q, fk))
        else:
            fc = Dyadic(p, fk)
        return self.spec.vec(fc, Dyadic(s, sk))

    # -- positive-first-coordinate combinations -------------------------

    def _pos_combos(self, hp: int, hq: int, hk: int, cap: int):
        """All N-combinations of the positive-fc generators whose first
        coordinate stays strictly under (hp + hq*sqrt2)/2^hk; returns
        (fk, triples) with the triples (p, q, s) on the lattice over
        2^fk."""
        gens, fk = self._scaled_pos(hk)
        hp <<= fk - hk
        hq <<= fk - hk
        out = []
        states = 0

        def rec(idx, p, q, sc):
            nonlocal states
            states += 1
            if states > cap:
                raise CapExceeded("semigroup enumeration state cap exceeded", cap)
            if idx == len(gens):
                out.append((p, q, sc))
                return
            gp, gq, gsc = gens[idx]
            while _sign_surd(hp - p, hq - q) > 0:
                rec(idx + 1, p, q, sc)
                p += gp
                q += gq
                sc += gsc

        rec(0, 0, 0, 0)
        return fk, out

    # -- zero-first-coordinate combinations -----------------------------

    def _zero_sums(self, hi: int, shift: int, cap: int) -> List[int]:
        """All second-coordinate sums, over 2^(sk + shift), of
        zero-fc generator combinations in [0, hi[, deduplicated and
        sorted."""
        sums = {0}
        frontier = [0]
        states = 0
        gvals = [s << shift for s in self._zero_ints]
        while frontier:
            cur = frontier.pop()
            for gv in gvals:
                nxt = cur + gv
                states += 1
                if states > cap:
                    raise CapExceeded("zero-generator sum cap exceeded", cap)
                if nxt < hi and nxt not in sums:
                    sums.add(nxt)
                    frontier.append(nxt)
        return sorted(sums)

    # -- tilde ----------------------------------------------------------

    def tilde(self, lam, cap: int = DEFAULT_STATE_CAP) -> Optional[TildeEntry]:
        """Least semigroup value (with 0) projecting to lambda, or None
        if lambda is not a first coordinate of the projected semigroup.

        Generators with first coordinate zero never appear in a witness:
        their second coordinates are positive, so dropping them only
        lowers the objective.
        """
        target = _lattice(lam)
        if target is None:
            return None
        tp, tq, tk = target
        if tp < 0 or tq < 0:
            return None
        if not (tp or tq):
            return TildeEntry(lam, self.spec.zero(), (0,) * len(self.generators))
        gens, fk = self._scaled_pos(tk)
        tp <<= fk - tk
        tq <<= fk - tk
        n = len(gens)
        best: Optional[Tuple[int, Tuple[int, ...]]] = None
        states = 0

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
        if best is None:
            return None
        sc, pos_exps = best
        witness = [0] * len(self.generators)
        for i, e in zip(self._pos_at, pos_exps):
            witness[i] = e
        return TildeEntry(lam, self._decode(tp, tq, fk, sc, self._sk), tuple(witness))

    # -- enumeration ----------------------------------------------------

    def _box_elements(self, box: Box, cap: int):
        """Distinct in-box elements as integer triples (p, q, s) with
        first coordinate (p + q*sqrt2)/2^fk and second coordinate s/2^sk;
        returns (fk, sk, triples)."""
        if box.y1 == 0 or box.y2 == 0:
            return 0, 0, set()
        tp, tq, tk = _lattice(box.t2)
        fk, combos = self._pos_combos(box.y2 * tp, box.y2 * tq, tk, cap)
        t1 = Dyadic._coerce(box.t1.coords[1])
        sk = max(self._sk, t1.k)
        shift = sk - self._sk
        width = box.y1 * t1.num << (sk - t1.k)
        by_lam: Dict[Tuple[int, int], List[int]] = {}
        for p, q, sc in combos:
            by_lam.setdefault((p, q), []).append(sc << shift)
        zero_sums = self._zero_sums(width, shift, cap)
        elements = set()
        for (p, q), scs in by_lam.items():
            hi = min(scs) + width
            for s0 in scs:
                for t in zero_sums:
                    s = s0 + t
                    if s < hi:
                        elements.add((p, q, s))
        elements.discard((0, 0, 0))  # the zero element is not a member
        return fk, sk, elements

    def enumerate_box(self, box: Box, cap: int = DEFAULT_STATE_CAP) -> List[LexVec]:
        """Every distinct nonzero semigroup element inside the box,
        exact and sorted."""
        fk, sk, elements = self._box_elements(box, cap)
        return sorted(self._decode(p, q, fk, s, sk) for p, q, s in elements)

    def count_box(self, box: Box, cap: int = DEFAULT_STATE_CAP) -> int:
        """len(enumerate_box(box)) without materializing the vectors."""
        return len(self._box_elements(box, cap)[2])


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
    gens = [vdef.z_value()]
    for fam in vdef.families():
        for i in range(0, fam.max_index + 1):
            gens.append(vdef.gen_value(fam, i))
    return GenSemigroup(vdef.group, gens)


def box_bound_check(
    vdef,
    y1: int,
    y2: int,
    dims=(1, 2),
    mults=(1, 1, 1),
    epsilon=1,
    cap: int = DEFAULT_STATE_CAP,
) -> BoxBoundReport:
    """Compare the enumerated sub-semigroup count over the pseudo-box
    with the polynomial growth bound; a count above the bound would
    falsify consistency."""
    sg = box_semigroup(vdef)
    box = Box(y1, y2, vdef.t1(), vdef.t2())
    count = sg.count_box(box, cap)
    bound = theorem1_bound(dims, mults, (y1, y2), epsilon)
    return BoxBoundReport(y1, y2, count, bound, Fraction(count) <= bound)
