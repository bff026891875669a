"""Generating sequences and the rank-2 valuations they define.

Two recursive polynomial families are supported.  The P family lives in
x, y with a weight function sigma:

    P_0 = x,  P_1 = y,  P_{i+1} = z^sigma(i) * P_i^2 - x^(2^(i+1)) * P_{i-1}

and the Q family lives in u, v with a weight function tau:

    Q_0 = u,  Q_1 = v,  Q_{i+1} = Q_i^2 - z^tau(i) * u^(2^(i+1)) * Q_{i-1}

Every polynomial in the family variables has a unique expansion with
exponent vectors in N x {0,1}^l over the family, obtained by a cascade
of euclidean divisions in the top variable.  The valuation of a
polynomial is the minimum over expansion terms of an exact weight
vector, and that minimum is attained by exactly one term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .errors import UsageError, VerificationError
from .exact import DYADIC2, QUAD2, Dyadic, GroupSpec, LexVec, QuadReal
from .poly import LaurentZ, MPoly, div_in_var

_ETA_CACHE: List[Dyadic] = [Dyadic(1)]


def eta(i: int) -> Dyadic:
    """eta_0 = 1, eta_{i+1} = 2*eta_i + 1/2^(i+1); exact dyadic."""
    if i < 0:
        raise UsageError("eta index must be nonnegative")
    while len(_ETA_CACHE) <= i:
        j = len(_ETA_CACHE)
        _ETA_CACHE.append(2 * _ETA_CACHE[-1] + Dyadic(1, j))
    return _ETA_CACHE[i]


def eta_closed(i: int) -> Dyadic:
    """Closed form (1/3)(2^(i+2) - 1/2^i) = (2^(2i+2) - 1) / (3 * 2^i)."""
    num = (1 << (2 * i + 2)) - 1
    if num % 3:
        raise VerificationError(f"2^{2 * i + 2} - 1 is not divisible by 3")
    return Dyadic(num // 3, i)


class SeqFamily:
    """One generating-sequence family with cached polynomials and values.

    ``weights[i]`` is sigma(i) for a P family or tau(i) for a Q family,
    defined for i >= 1.
    """

    def __init__(self, kind: str, weights):
        if kind not in ("P", "Q"):
            raise UsageError(f"unknown family kind {kind!r}")
        if not isinstance(weights, dict):
            weights = {i + 1: w for i, w in enumerate(weights)}
        for i, w in weights.items():
            if i < 1 or w < 0 or (kind == "Q" and w < 1):
                raise UsageError(f"invalid weight {w} at index {i}")
        self.kind = kind
        self.weights = dict(weights)
        if kind == "P":
            self.main0, self.main1 = 0, 1  # x, y
        else:
            self.main0, self.main1 = 2, 3  # u, v
        v0 = "x" if kind == "P" else "u"
        v1 = "y" if kind == "P" else "v"
        self._polys: List[MPoly] = [MPoly.var(v0), MPoly.var(v1)]
        self._seconds: List[Dyadic] = [Dyadic(0)]
        self._suffix_products: Dict[Tuple[int, ...], MPoly] = {}

    @property
    def max_index(self) -> int:
        return max(self.weights, default=0)

    def weight(self, i: int) -> int:
        if i not in self.weights:
            raise UsageError(f"weight at index {i} is not defined for this family")
        return self.weights[i]

    def poly(self, i: int) -> MPoly:
        """P_i (or Q_i), computed by the recursion and cached."""
        if i < 0:
            raise UsageError("family index must be nonnegative")
        while len(self._polys) <= i:
            j = len(self._polys) - 1  # building index j+1 from weight(j)
            w = self.weight(j)
            z_w = MPoly.constant(LaurentZ.term(1, w))
            x_pow = MPoly.var("x" if self.kind == "P" else "u") ** (1 << (j + 1))
            sq = self._polys[j] * self._polys[j]
            if self.kind == "P":
                nxt = z_w * sq - x_pow * self._polys[j - 1]
            else:
                nxt = sq - z_w * x_pow * self._polys[j - 1]
            self._polys.append(nxt)
        return self._polys[i]

    def second(self, i: int) -> Dyadic:
        """gamma_i for a P family, delta_i for a Q family; exact dyadic."""
        while len(self._seconds) <= i:
            j = len(self._seconds)
            w = self.weight(j)
            prev = self._seconds[-1]
            if self.kind == "P":
                self._seconds.append((prev - w) * Dyadic(1, 1))
            else:
                self._seconds.append((prev + w) * Dyadic(1, 1))
        return self._seconds[i]

    def value(self, i: int) -> Tuple[Dyadic, Dyadic]:
        """(eta_i, gamma_i or delta_i), the weight vector of the i-th member."""
        return eta(i), self.second(i)

    def name(self, i: int) -> str:
        return f"{self.kind}_{i}"

    def suffix_product(self, suffix: Tuple[int, ...]) -> MPoly:
        """prod member_i^e for the exponents (e at index i >= 1), cached."""
        suffix = _canon_suffix(suffix)
        if suffix not in self._suffix_products:
            prod = MPoly.one()
            for i, e in enumerate(suffix, start=1):
                if e:
                    prod = prod * (self.poly(i) if e == 1 else self.poly(i) ** e)
            self._suffix_products[suffix] = prod
        return self._suffix_products[suffix]


def gamma(fam: SeqFamily, i: int) -> Dyadic:
    if fam.kind != "P":
        raise UsageError("gamma is defined for P families")
    return fam.second(i)


def delta(fam: SeqFamily, i: int) -> Dyadic:
    if fam.kind != "Q":
        raise UsageError("delta is defined for Q families")
    return fam.second(i)


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


def _canon_suffix(exps: Tuple[int, ...]) -> Tuple[int, ...]:
    exps = tuple(exps)
    n = len(exps)
    while n and exps[n - 1] == 0:
        n -= 1
    return exps[:n]


def _canon_exps(exps: Tuple[int, ...]) -> Tuple[int, ...]:
    exps = tuple(exps)
    n = len(exps)
    while n > 1 and exps[n - 1] == 0:
        n -= 1
    return exps[:n]


class ValuationDef:
    """A rank-2 valuation defined by one or two generating families.

    Forms: "P3" (x, y, z), "Q3" (u, v, z), "C5" (all five variables,
    value group with a sqrt(2) first coordinate).
    """

    def __init__(self, form: str, p: Optional[SeqFamily] = None, q: Optional[SeqFamily] = None):
        if form not in ("P3", "Q3", "C5"):
            raise UsageError(f"unknown valuation form {form!r}")
        if form == "P3" and (p is None or p.kind != "P" or q is not None):
            raise UsageError("P3 form takes exactly one P family")
        if form == "Q3" and (q is None or q.kind != "Q" or p is not None):
            raise UsageError("Q3 form takes exactly one Q family")
        if form == "C5" and (p is None or q is None or p.kind != "P" or q.kind != "Q"):
            raise UsageError("C5 form takes one P family and one Q family")
        self.form = form
        self.p = p
        self.q = q
        self.group: GroupSpec = QUAD2 if form == "C5" else DYADIC2

    @staticmethod
    def p3(sigma) -> "ValuationDef":
        return ValuationDef("P3", p=SeqFamily("P", sigma))

    @staticmethod
    def q3(tau) -> "ValuationDef":
        return ValuationDef("Q3", q=SeqFamily("Q", tau))

    @staticmethod
    def combined(sigma, tau) -> "ValuationDef":
        return ValuationDef("C5", p=SeqFamily("P", sigma), q=SeqFamily("Q", tau))

    def allowed_vars(self) -> Tuple[int, ...]:
        if self.form == "P3":
            return (0, 1)
        if self.form == "Q3":
            return (2, 3)
        return (0, 1, 2, 3)

    def families(self) -> List[SeqFamily]:
        return [f for f in (self.p, self.q) if f is not None]

    def z_value(self) -> LexVec:
        return self.group.vec(0, 1)

    def gen_value(self, fam: SeqFamily, i: int) -> LexVec:
        """The value of the i-th family member as a LexVec of this group."""
        e, s = fam.value(i)
        if self.form == "C5" and fam.kind == "Q":
            return self.group.vec(QuadReal(0, e), s)
        if self.form == "C5":
            return self.group.vec(QuadReal(e, 0), s)
        return self.group.vec(e, s)

    def t1(self) -> LexVec:
        """nu(m_R): minimum value over the variable generators and z."""
        candidates = [self.z_value()]
        for fam in self.families():
            candidates.append(self.gen_value(fam, 0))
            candidates.append(self.gen_value(fam, 1))
        return min(candidates)

    def t2(self):
        """nu_2(p_2): minimal first coordinate over the center generators."""
        firsts = []
        for fam in self.families():
            firsts.append(self.gen_value(fam, 0).coords[0])
            firsts.append(self.gen_value(fam, 1).coords[0])
        return min(firsts)

    def descriptor(self) -> dict:
        out = {"form": self.form}
        if self.p is not None:
            out["sigma"] = [self.p.weights[i] for i in sorted(self.p.weights)]
        if self.q is not None:
            out["tau"] = [self.q.weights[i] for i in sorted(self.q.weights)]
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

    For the five-variable form the expansion is taken in the Q family
    first, then each coefficient is expanded in the P family.
    """
    if f.is_zero():
        raise UsageError("cannot expand the zero polynomial")
    if not f.uses_only(v.allowed_vars()):
        raise UsageError(f"polynomial uses variables outside the {v.form} form")
    terms: List[ExpTerm] = []
    if v.form == "P3":
        for c, a in _expand_family(f, v.p):
            terms.append(ExpTerm(c.as_laurent(), alpha=_canon_exps(a)))
    elif v.form == "Q3":
        for c, b in _expand_family(f, v.q):
            terms.append(ExpTerm(c.as_laurent(), beta=_canon_exps(b)))
    else:
        for g, b in _expand_family(f, v.q):
            for c, a in _expand_family(g, v.p):
                terms.append(
                    ExpTerm(c.as_laurent(), alpha=_canon_exps(a), beta=_canon_exps(b))
                )
    terms.sort(key=lambda t: (t.alpha, t.beta))
    return terms


def reconstruct(v: ValuationDef, terms: List[ExpTerm]) -> MPoly:
    """Multiply every term back out; inverse of expand on canonical input.

    Terms sharing the same higher-member exponents are collected into one
    polynomial of x/u monomials first, so each distinct member product is
    multiplied out only once.
    """
    groups: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Dict[tuple, LaurentZ]] = {}
    for t in terms:
        a0 = t.alpha[0] if t.alpha else 0
        b0 = t.beta[0] if t.beta else 0
        suffix = (_canon_exps(t.alpha)[1:], _canon_exps(t.beta)[1:])
        mono = (a0, 0, b0, 0)
        bucket = groups.setdefault(suffix, {})
        bucket[mono] = bucket[mono] + t.coeff if mono in bucket else t.coeff
    total = MPoly.zero()
    for (sa, sb), bucket in groups.items():
        part = MPoly(bucket)
        if sa:
            part = part * v.p.suffix_product(sa)
        if sb:
            part = part * v.q.suffix_product(sb)
        total = total + part
    return total


def term_value(v: ValuationDef, t: ExpTerm) -> LexVec:
    """(0, ord_z a) plus the weight vectors of the term's factors."""
    second = Dyadic(t.coeff.ord_z())
    if v.form == "C5":
        rat = Dyadic(0)
        surd = Dyadic(0)
        for i, e in enumerate(t.alpha):
            if e:
                rat = rat + e * eta(i)
                if i >= 1:
                    second = second + e * v.p.second(i)
        for i, e in enumerate(t.beta):
            if e:
                surd = surd + e * eta(i)
                if i >= 1:
                    second = second + e * v.q.second(i)
        return v.group.vec(QuadReal(rat, surd), second)
    fam = v.p if v.form == "P3" else v.q
    exps = t.alpha if v.form == "P3" else t.beta
    first = Dyadic(0)
    for i, e in enumerate(exps):
        if e:
            first = first + e * eta(i)
            if i >= 1:
                second = second + e * fam.second(i)
    return v.group.vec(first, second)


@dataclass
class ValuationResult:
    value: LexVec
    witness: ExpTerm
    expansion: List[ExpTerm]


def _min_term(v: ValuationDef, terms: List[ExpTerm]) -> Tuple[LexVec, ExpTerm]:
    best = None
    best_term = None
    tie = False
    for t in terms:
        val = term_value(v, t)
        if best is None or val < best:
            best, best_term, tie = val, t, False
        elif val == best:
            tie = True
    if best is None:
        raise UsageError("empty expansion has no value")
    if tie:
        raise VerificationError("expansion minimum attained by more than one term")
    return best, best_term


def valuate(v: ValuationDef, f: MPoly) -> ValuationResult:
    """nu(f) with the (unique) minimizing expansion term as witness."""
    terms = expand(v, f)
    value, witness = _min_term(v, terms)
    return ValuationResult(value, witness, terms)


def valuate_terms(v: ValuationDef, terms: List[ExpTerm]) -> LexVec:
    """The minimum weight over a term list with arbitrary N exponents."""
    best = None
    for t in terms:
        val = term_value(v, t)
        if best is None or val < best:
            best = val
    if best is None:
        raise UsageError("empty term list has no value")
    return best


def _pad(exps: Tuple[int, ...], i: int) -> List[int]:
    out = list(exps)
    out.extend([0] * (i + 1 - len(out)))
    return out


def normalize_product(v: ValuationDef, terms: List[ExpTerm]) -> List[ExpTerm]:
    """Rewrite a term list with arbitrary N exponents into canonical form.

    Repeatedly substitutes the defining identities

        P_i^2 = z^-sigma(i) * P_{i+1} + z^-sigma(i) * x^(2^(i+1)) * P_{i-1}
        Q_i^2 = Q_{i+1} + z^tau(i) * u^(2^(i+1)) * Q_{i-1}

    collecting like terms, until every exponent vector lies in
    N x {0,1}^l.  The minimum weight of the list is preserved at every
    step, so the result expands the same polynomial.
    """
    work: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], LaurentZ] = {}
    for t in terms:
        key = (_canon_exps(t.alpha) if t.alpha else (), _canon_exps(t.beta) if t.beta else ())
        work[key] = work[key] + t.coeff if key in work else t.coeff
    for key in [k for k, c in work.items() if c.is_zero()]:
        del work[key]

    def offending(key):
        alpha, beta = key
        for i in range(1, len(alpha)):
            if alpha[i] >= 2:
                return ("P", i)
        for i in range(1, len(beta)):
            if beta[i] >= 2:
                return ("Q", i)
        return None

    def add(key, coeff):
        if key in work:
            s = work[key] + coeff
            if s.is_zero():
                del work[key]
            else:
                work[key] = s
        elif not coeff.is_zero():
            work[key] = coeff

    changed = True
    while changed:
        changed = False
        for key in list(work):
            if key not in work:
                continue
            hit = offending(key)
            if hit is None:
                continue
            changed = True
            side, i = hit
            coeff = work.pop(key)
            alpha, beta = key
            if side == "P":
                w = v.p.weight(i)
                a1 = _pad(alpha, i + 1)
                a1[i] -= 2
                a1[i + 1] += 1
                a2 = _pad(alpha, i + 1)
                a2[i] -= 2
                a2[i - 1] += 1
                a2[0] += 1 << (i + 1)
                add((_canon_exps(tuple(a1)), beta), coeff.scaled(1, -w))
                add((_canon_exps(tuple(a2)), beta), coeff.scaled(1, -w))
            else:
                w = v.q.weight(i)
                b1 = _pad(beta, i + 1)
                b1[i] -= 2
                b1[i + 1] += 1
                b2 = _pad(beta, i + 1)
                b2[i] -= 2
                b2[i - 1] += 1
                b2[0] += 1 << (i + 1)
                add((alpha, _canon_exps(tuple(b1))), coeff)
                add((alpha, _canon_exps(tuple(b2))), coeff.scaled(1, w))
    out = [ExpTerm(c, alpha=a, beta=b) for (a, b), c in work.items()]
    out.sort(key=lambda t: (t.alpha, t.beta))
    return out


def check_key_identity(v: ValuationDef, i: int, symbolic: Optional[bool] = None) -> bool:
    """Check nu(members) data: equality of the two recursion branches and
    strictness against the next member, for every family of the form.

    The arithmetic check runs on cached (eta, gamma/delta) data.  The
    symbolic check recomputes both branch values from actual
    polynomials; for indices whose squares are too large to expand by
    division it rewrites the square through the defining identity
    instead, which is the same substitution the expansion uses.
    """
    if i < 1:
        raise UsageError("key identities are stated for i >= 1")
    for fam in v.families():
        if not _check_family_identity(v, fam, i, symbolic):
            return False
    return True


_SYMBOLIC_POLY_CAP = 5


def _check_family_identity(v: ValuationDef, fam: SeqFamily, i: int, symbolic) -> bool:
    w = fam.weight(i)
    two_eta = 2 * eta(i)
    left_first = two_eta
    right_first = (1 << (i + 1)) + eta(i - 1)
    if fam.kind == "P":
        left_second = Dyadic(w) + 2 * fam.second(i)
        right_second = fam.second(i - 1)
    else:
        left_second = 2 * fam.second(i)
        right_second = Dyadic(w) + fam.second(i - 1)
    ok = left_first == right_first and left_second == right_second
    # strictness against the next member needs only eta data
    ok = ok and two_eta < eta(i + 1)
    if not ok:
        return False
    if symbolic is False:
        return True
    if symbolic is None and i > 6:
        return True

    def fam_term(exps, coeff=LaurentZ.one()):
        if fam.kind == "P":
            return ExpTerm(coeff, alpha=exps)
        return ExpTerm(coeff, beta=exps)

    sq_exps = tuple([0] * i + [2])
    if fam.kind == "P":
        left_terms = [fam_term(sq_exps, LaurentZ.term(1, w))]
    else:
        left_terms = [fam_term(sq_exps)]
    if i <= _SYMBOLIC_POLY_CAP:
        pi = fam.poly(i)
        z_w = MPoly.constant(LaurentZ.term(1, w))
        left_poly = z_w * pi * pi if fam.kind == "P" else pi * pi
        left_val = valuate(v, left_poly).value
    else:
        left_val = valuate_terms(v, normalize_product(v, left_terms))
    if fam.kind == "P":
        right = fam_term(tuple(_r_exps(i)))
    else:
        right = fam_term(tuple(_r_exps(i)), LaurentZ.term(1, w))
    right_val = term_value(v, right)
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


def choose_sigma(f: Callable[[int], int], i_max: int) -> Dict[int, int]:
    """Minimal weights sigma(i) making gamma_i integral and below f(i*2^(i+3)).

    Integrality follows the recursion gamma_i = (gamma_{i-1} - sigma(i)) / 2,
    so sigma(i) must match the parity of gamma_{i-1}; minimality is over
    positive integers scanned in increasing order.
    """
    weights: Dict[int, int] = {}
    g = 0  # gamma_{i-1}, an integer by construction
    for i in range(1, i_max + 1):
        bound = f(i << (i + 3))
        # need (g - sigma)/2 < bound, i.e. sigma > g - 2*bound
        lo = max(1, g - 2 * bound + 1)
        if lo % 2 != g % 2:
            lo += 1
        weights[i] = lo
        g = (g - lo) // 2
    return weights


def choose_tau(g_fn: Callable[[int], int], i_max: int) -> Dict[int, int]:
    """Minimal weights tau(i) making delta_i integral and above g(i*2^(i+3))."""
    weights: Dict[int, int] = {}
    d = 0
    for i in range(1, i_max + 1):
        bound = g_fn(i << (i + 3))
        # need (d + tau)/2 > bound, i.e. tau > 2*bound - d
        lo = max(1, 2 * bound - d + 1)
        if lo % 2 != d % 2:
            lo += 1
        weights[i] = lo
        d = (d + lo) // 2
    return weights
