"""Generating sequences and the rank-2 valuations they define.

Both supported families satisfy one recursion identity.  A family with
root r (x or u) and second variable y or v has members M_0 = r, M_1
and, for i >= 1,

    z^a_i * M_i^2 = M_{i+1} + z^b_i * r^(2^(i+1)) * M_{i-1}

with shifts (a_i, b_i) = (sigma(i), 0) for the P family in x, y and
(0, tau(i)) for the Q family in u, v.  So

    P_{i+1} = z^sigma(i) * P_i^2 - x^(2^(i+1)) * P_{i-1}
    Q_{i+1} = Q_i^2 - z^tau(i) * u^(2^(i+1)) * Q_{i-1}

Every polynomial in the family variables has a unique expansion with
exponent vectors in N x {0,1}^l over the family, obtained by a cascade
of euclidean divisions in the top variable.  The valuation of a
polynomial is the minimum over expansion terms of an exact weight
vector, and that minimum is attained by exactly one term.

Member values (eta_i, s_i) have denominators dividing 2^i, so a valuation
holds them once as integers over 2^K, K the largest index with a weight.
A term's value is an integer triple (p, q, s) for ((p + q*sqrt2)/2^K, s/2^K),
q = 0 outside C5, ordered by the sign test exact._sign_surd, then by s.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable, Dict, List, Optional, Tuple

from .errors import UsageError, VerificationError
from .exact import DYADIC2, QUAD2, Dyadic, GroupSpec, LexVec, QuadReal, _decode, _sign_surd
from .poly import VAR_INDEX, LaurentZ, MPoly, div_in_var


def _eta_num(i: int) -> int:
    """eta_i * 2^i = (4^(i+1) - 1)/3, an odd integer."""
    return ((1 << (2 * i + 2)) - 1) // 3


def eta(i: int) -> Dyadic:
    """eta_0 = 1, eta_{i+1} = 2*eta_i + 1/2^(i+1); exact dyadic, from the
    closed form (1/3)(2^(i+2) - 1/2^i) = _eta_num(i)/2^i."""
    if not isinstance(i, int):
        raise UsageError(f"eta index {i!r} is not an integer")
    if i < 0:
        raise UsageError("eta index must be nonnegative")
    return Dyadic(_eta_num(i), i)


class SeqFamily:
    """One generating-sequence family with cached polynomials and values.

    ``weights[i - 1]`` is sigma(i) for a P family or tau(i) for a Q
    family, for i >= 1.  Everything else reads the family through its
    root variable and its shifts (a_i, b_i) in the identity
    z^a_i * M_i^2 = M_{i+1} + z^b_i * root^(2^(i+1)) * M_{i-1}.
    """

    def __init__(self, kind: str, weights):
        if kind not in ("P", "Q"):
            raise UsageError(f"unknown family kind {kind!r}")
        self.weights = list(weights)
        for i, w in enumerate(self.weights, start=1):
            if not isinstance(w, int):
                raise UsageError(f"weight {w!r} at index {i} is not an integer")
            if w < 0 or (kind == "Q" and w < 1):
                raise UsageError(f"invalid weight {w} at index {i}")
        self.kind = kind
        self.root, top = ("x", "y") if kind == "P" else ("u", "v")
        self.main0, self.main1 = VAR_INDEX[self.root], VAR_INDEX[top]
        self._polys: List[MPoly] = [MPoly.var(self.root), MPoly.var(top)]
        self._seconds = [0]  # s_i * 2^i, from s_i = (s_{i-1} + b_i - a_i)/2
        for i in range(1, self.max_index + 1):
            a, b = self.shifts(i)
            self._seconds.append(self._seconds[-1] + ((b - a) << (i - 1)))
        self._suffix_products: Dict[Tuple[int, ...], MPoly] = {}

    @property
    def max_index(self) -> int:
        return len(self.weights)

    def weight(self, i: int) -> int:
        if not 1 <= i <= len(self.weights):
            raise UsageError(f"weight at index {i} is not defined for this family")
        return self.weights[i - 1]

    def shifts(self, i: int) -> Tuple[int, int]:
        """(a_i, b_i): the z exponents on M_i^2 and on root^(2^(i+1)) * M_{i-1}."""
        w = self.weight(i)
        return (w, 0) if self.kind == "P" else (0, w)

    def poly(self, i: int) -> MPoly:
        """M_i, computed by the recursion and cached."""
        if i < 0:
            raise UsageError("family index must be nonnegative")
        while len(self._polys) <= i:
            j = len(self._polys) - 1  # building index j+1 from the shifts at j
            a, b = self.shifts(j)
            root_pow = MPoly.var(self.root) ** (1 << (j + 1))
            sq = self._polys[j] * self._polys[j]
            self._polys.append(sq.scaled(1, a) - (root_pow * self._polys[j - 1]).scaled(1, b))
        return self._polys[i]

    def second(self, i: int) -> Dyadic:
        """gamma_i for a P family, delta_i for a Q family: _seconds[i]/2^i."""
        if i < 0:
            raise UsageError("family index must be nonnegative")
        if i > self.max_index:
            self.weight(self.max_index + 1)  # raises: the first member without a weight
        return Dyadic(self._seconds[i], i)

    def name(self, i: int) -> str:
        """The root variable for i = 0, else P_i or Q_i."""
        return f"{self.kind}_{i}" if i else self.root

    def suffix_product(self, suffix: Tuple[int, ...]) -> MPoly:
        """prod member_i^e for the exponents (e at index i >= 1), cached;
        the suffix must not end in a zero exponent."""
        if suffix not in self._suffix_products:
            prod = MPoly.one()
            for i, e in enumerate(suffix, start=1):
                if e:
                    prod = prod * (self.poly(i) if e == 1 else self.poly(i) ** e)
            self._suffix_products[suffix] = prod
        return self._suffix_products[suffix]


@dataclass(frozen=True)
class ExpTerm:
    """One expansion term a(z) * x^a0 * prod P_i^ai * u^b0 * prod Q_i^bi.

    ``alpha`` holds the P-family exponents (index 0 is the x exponent),
    ``beta`` the Q-family exponents; either may be empty when the form
    does not involve that family.
    """

    coeff: LaurentZ
    alpha: Tuple[int, ...] = ()
    beta: Tuple[int, ...] = ()


def _canon_exps(exps: Tuple[int, ...]) -> Tuple[int, ...]:
    exps = tuple(exps)
    n = len(exps)
    while n > 1 and exps[n - 1] == 0:
        n -= 1
    return exps[:n]


def _slot(fam: SeqFamily) -> str:
    """The ExpTerm field that holds the exponents over fam."""
    return "alpha" if fam.kind == "P" else "beta"


class ValuationDef:
    """A rank-2 valuation defined by one or two generating families.

    The families present fix the form: "P3" (x, y, z), "Q3" (u, v, z)
    or "C5" (all five variables, value group with a sqrt(2) first
    coordinate).  The first coordinate of a value is built by
    ``embed``: in C5 the P part is its rational part and the Q part its
    sqrt(2) part.
    """

    def __init__(self, p: Optional[SeqFamily] = None, q: Optional[SeqFamily] = None):
        wrong_kind = (p is not None and p.kind != "P") or (q is not None and q.kind != "Q")
        if (p is None and q is None) or wrong_kind:
            raise UsageError("a valuation takes a P family, a Q family or one of each")
        self.p = p
        self.q = q
        self.form = "Q3" if p is None else "P3" if q is None else "C5"
        self.group: GroupSpec = QUAD2 if self.form == "C5" else DYADIC2
        # each member value once, as integers over 2^k: (family, etas, seconds)
        self._k = k = max(f.max_index for f in self.families())
        self._lattice = [
            (f, [_eta_num(i) << (k - i) for i in range(f.max_index + 1)],
             [s << (k - i) for i, s in enumerate(f._seconds)])
            for f in self.families()
        ]
        self._values: Dict[Tuple[str, int], LexVec] = {}  # gen_value, once per member

    @staticmethod
    def p3(sigma) -> "ValuationDef":
        return ValuationDef(p=SeqFamily("P", sigma))

    @staticmethod
    def q3(tau) -> "ValuationDef":
        return ValuationDef(q=SeqFamily("Q", tau))

    @staticmethod
    def combined(sigma, tau) -> "ValuationDef":
        return ValuationDef(SeqFamily("P", sigma), SeqFamily("Q", tau))

    def allowed_vars(self) -> Tuple[int, ...]:
        return tuple(i for fam in self.families() for i in (fam.main0, fam.main1))

    def families(self) -> List[SeqFamily]:
        return [f for f in (self.p, self.q) if f is not None]

    def embed(self, fam: SeqFamily, x):
        """The first coordinate whose part for fam is x and whose other parts are 0."""
        parts = [x if f is fam else 0 for f in self.families()]
        return QuadReal(*parts) if self.group.quad else parts[0]

    def z_value(self) -> LexVec:
        return self.group.vec(0, 1)

    def gen_value(self, fam: SeqFamily, i: int) -> LexVec:
        """The value (eta_i, gamma_i or delta_i) of the i-th family member,
        as a LexVec of this group."""
        key = fam.kind, i
        if key not in self._values:
            self._values[key] = self.group.vec(self.embed(fam, eta(i)), fam.second(i))
        return self._values[key]

    def generators(self, up_to: Optional[int] = None) -> List[Tuple[str, LexVec]]:
        """(name, value) of z, of each family root and of every family
        member whose weight data is defined, up to index up_to if given."""
        out = [("z", self.z_value())]
        for fam in self.families():
            last = fam.max_index if up_to is None else min(up_to, fam.max_index)
            for i in range(0, last + 1):
                out.append((fam.name(i), self.gen_value(fam, i)))
        return out

    def _centers(self) -> List[LexVec]:
        """The values of the center generators: each family's root and first member."""
        return [self.gen_value(fam, i) for fam in self.families() for i in (0, 1)]

    def t1(self) -> LexVec:
        """nu(m_R): minimum value over the variable generators and z."""
        return min([self.z_value(), *self._centers()])

    def t2(self):
        """nu_2(p_2): minimal first coordinate over the center generators."""
        return min(v.first for v in self._centers())

    def descriptor(self) -> dict:
        out = {"form": self.form}
        if self.p is not None:
            out["sigma"] = list(self.p.weights)
        if self.q is not None:
            out["tau"] = list(self.q.weights)
        return out


def _expand_family(f: MPoly, fam: SeqFamily) -> List[Tuple[MPoly, Tuple[int, ...]]]:
    """Unique expansion of f over fam; coefficients free of the family's
    two variables, exponent vectors in N x {0,1}^l."""
    if f.is_zero():
        return []
    d = f.deg(fam.main1)
    if d <= 0:
        out = []
        for e0 in sorted({m[fam.main0] for m in f.terms}):
            out.append((f.coeff_in_var(fam.main0, e0), (e0,)))
        return out
    l = 1
    while d >= (1 << l):
        l += 1
    q, r = div_in_var(f, fam.poly(l), fam.main1)
    out = []
    for c, a in _expand_family(q, fam):
        a = a + (0,) * (l + 1 - len(a))
        out.append((c, a[:l] + (1,)))
    out.extend(_expand_family(r, fam))
    return out


def expand(v: ValuationDef, f: MPoly) -> List[ExpTerm]:
    """The canonical expansion of f for the given valuation form.

    The expansion is taken in the last family first, then each
    coefficient is expanded in the family before it; for the
    five-variable form that is the Q family, then the P family.
    """
    if f.is_zero():
        raise UsageError("cannot expand the zero polynomial")
    if not f.uses_only(v.allowed_vars()):
        raise UsageError(f"polynomial uses variables outside the {v.form} form")
    rows = [(f, ())]
    for fam in reversed(v.families()):
        rows = [
            (c, (_canon_exps(a),) + parts) for g, parts in rows for c, a in _expand_family(g, fam)
        ]
    slots = [_slot(fam) for fam in v.families()]
    terms = [ExpTerm(c.as_laurent(), **dict(zip(slots, parts))) for c, parts in rows]
    terms.sort(key=lambda t: (t.alpha, t.beta))
    return terms


def reconstruct(v: ValuationDef, terms: List[ExpTerm]) -> MPoly:
    """Multiply every term back out; inverse of expand on canonical input.

    Terms sharing the same higher-member exponents are collected into one
    polynomial of x/u monomials first, so each distinct member product is
    multiplied out only once.
    """
    groups: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], MPoly] = {}
    for t in terms:
        a0 = t.alpha[0] if t.alpha else 0
        b0 = t.beta[0] if t.beta else 0
        suffix = (_canon_exps(t.alpha)[1:], _canon_exps(t.beta)[1:])
        part = MPoly({(a0, 0, b0, 0): t.coeff})
        groups[suffix] = groups[suffix] + part if suffix in groups else part
    total = MPoly.zero()
    for (sa, sb), part in groups.items():
        if sa:
            part = part * v.p.suffix_product(sa)
        if sb:
            part = part * v.q.suffix_product(sb)
        total = total + part
    return total


def _lattice_point(v: ValuationDef, t: ExpTerm) -> Tuple[int, int, int]:
    """t's value as (p, q, s) over 2^v._k, by dot products with v's table."""
    parts = [0, 0]
    s = t.coeff.ord_z() << v._k
    for j, (fam, etas, seconds) in enumerate(v._lattice):
        exps = t.alpha if fam.kind == "P" else t.beta
        if any(exps[len(etas):]):
            fam.weight(len(etas))  # raises: a member past the weights has no value
        parts[j] = sum(map(mul, exps, etas))
        s += sum(map(mul, exps, seconds))
    return parts[0], parts[1], s


def term_value(v: ValuationDef, t: ExpTerm) -> LexVec:
    """(0, ord_z a) plus the weight vectors of the term's factors, summed as
    integers over 2^v._k; the one LexVec built is the result."""
    p, q, s = _lattice_point(v, t)
    return _decode(v.group.quad, p, q, v._k, s, v._k)


@dataclass
class ValuationResult:
    value: LexVec
    witness: ExpTerm
    expansion: List[ExpTerm]


def valuate(v: ValuationDef, f: MPoly) -> ValuationResult:
    """nu(f) with the (unique) minimizing expansion term as witness, the
    minimum taken over integer triples with the one sign test _sign_surd."""
    terms = expand(v, f)
    best, (bp, bq, bs) = terms[0], _lattice_point(v, terms[0])
    tie = False
    for t in terms[1:]:
        p, q, s = _lattice_point(v, t)
        c = _sign_surd(p - bp, q - bq) or (s > bs) - (s < bs)
        if c < 0:
            best, bp, bq, bs, tie = t, p, q, s, False
        elif not c:
            tie = True
    if tie:
        raise VerificationError("expansion minimum attained by more than one term")
    return ValuationResult(term_value(v, best), best, terms)


_SYMBOLIC_MAX_INDEX = 6


def check_key_identity(v: ValuationDef, i: int) -> bool:
    """Check nu(members) data: equality of the two recursion branches and
    strictness against the next member, for every family of the form.

    The arithmetic check runs on the family's integer table for every
    i.  Up to _SYMBOLIC_MAX_INDEX the left branch is also valued from the
    polynomial z^a_i * M_i^2 itself, through its canonical expansion.
    """
    if i < 1:
        raise UsageError("key identities are stated for i >= 1")
    return all(_check_family_identity(v, fam, i) for fam in v.families())


def _check_family_identity(v: ValuationDef, fam: SeqFamily, i: int) -> bool:
    a, b = fam.shifts(i)
    e_prev, e, e_next = _eta_num(i - 1), _eta_num(i), _eta_num(i + 1)
    s_prev, s = fam._seconds[i - 1], fam._seconds[i]
    # over 2^i: 2*eta_i = 2^(i+1) + eta_{i-1} and a_i + 2*s_i = b_i + s_{i-1};
    # then strictness against the next member, 2*eta_i < eta_{i+1}
    ok = (2 * e == (1 << (2 * i + 1)) + 2 * e_prev
          and (a << i) + 2 * s == (b << i) + 2 * s_prev
          and 4 * e < e_next)
    if not ok or i > _SYMBOLIC_MAX_INDEX:
        return ok

    def fam_term(exps, shift=0):
        return ExpTerm(LaurentZ.term(1, shift), **{_slot(fam): tuple(exps)})

    pi = fam.poly(i)
    left_val = valuate(v, (pi * pi).scaled(1, a)).value
    right_val = term_value(v, fam_term(_r_exps(i), b))
    next_val = term_value(v, fam_term((0,) * (i + 1) + (1,)))
    return left_val == right_val and left_val < next_val


def _r_exps(i: int) -> List[int]:
    # x^(2^(i+1)) * member_{i-1}
    exps = [0] * max(i, 1)
    exps[0] = 1 << (i + 1)
    if i - 1 == 0:
        exps[0] += 1
    else:
        exps[i - 1] = 1
    return exps


def choose_weights(kind: str, bound: Callable[[int], int], i_max: int) -> List[int]:
    """Minimal weights w_i making each s_i integral and beyond
    bound(i*2^(i+3)): below it for a P family, above it for a Q family.

    With t = -1 for P and +1 for Q the recursion reads
    s_i = (s_{i-1} + t*w_i) / 2, so s_i is beyond the bound exactly when
    w_i > t*(2*bound - s_{i-1}), and integral when w_i has the parity of
    s_{i-1}; minimality is over positive integers.  w_i is at position
    i - 1 of the list.
    """
    if kind not in ("P", "Q"):
        raise UsageError(f"unknown family kind {kind!r}")
    t = -1 if kind == "P" else 1
    weights: List[int] = []
    s = 0  # s_{i-1}, an integer by construction
    for i in range(1, i_max + 1):
        w = max(1, t * (2 * bound(i << (i + 3)) - s) + 1)
        w += (w - s) % 2
        weights.append(w)
        s = (s + t * w) // 2
    return weights
