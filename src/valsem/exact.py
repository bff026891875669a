"""Exact arithmetic for value-group elements.

Three scalar kinds are supported: arbitrary-precision integers, dyadic
rationals m/2^k, and real numbers of the form p + q*sqrt(2) with dyadic
p, q.  Vectors of these scalars form lexicographically ordered product
groups; the convex subgroups are exactly the suffix subgroups, so
quotient projections simply drop trailing coordinates.

No floating point is used anywhere; every comparison is decided by
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from sys import hash_info
from typing import Iterable, Union

from .errors import ParseError, UsageError

ScalarLike = Union[int, "Dyadic", "QuadReal", Fraction]

_HASH_BITS = hash_info.modulus.bit_length()


class Dyadic:
    """A dyadic rational m/2^k in canonical form (m odd or zero, k >= 0)."""

    __slots__ = ("num", "k")

    def __init__(self, num: int, k: int = 0):
        if k > 0 and not num & 1:
            if num:
                tz = min(k, (num & -num).bit_length() - 1)
                num >>= tz
                k -= tz
            else:
                k = 0
        elif k < 0:
            num <<= -k
            k = 0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "k", k)

    def __setattr__(self, *_):
        raise AttributeError("Dyadic is immutable")

    @staticmethod
    def from_fraction(q: Fraction) -> "Dyadic":
        den = q.denominator
        k = den.bit_length() - 1
        if den != 1 << k:
            raise UsageError(f"{q} is not a dyadic rational")
        return Dyadic(q.numerator, k)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.k)

    @staticmethod
    def _coerce(x) -> "Dyadic":
        if isinstance(x, Dyadic):
            return x
        if isinstance(x, int):
            return Dyadic(x)
        if isinstance(x, Fraction):
            return Dyadic.from_fraction(x)
        return NotImplemented

    def __add__(self, other):
        o = Dyadic._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        k = max(self.k, o.k)
        return Dyadic((self.num << (k - self.k)) + (o.num << (k - o.k)), k)

    __radd__ = __add__

    def __neg__(self):
        return Dyadic(-self.num, self.k)

    def __sub__(self, other):
        o = Dyadic._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = Dyadic._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Dyadic(self.num * o.num, self.k + o.k)

    __rmul__ = __mul__

    def _cmp(self, other) -> int:
        o = Dyadic._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        lhs = self.num << max(0, o.k - self.k)
        rhs = o.num << max(0, self.k - o.k)
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __hash__(self):
        # hash(Fraction(num, 2^k)) without building the Fraction: the hash
        # modulus is the Mersenne prime 2^b - 1, so 2^-k = 2^(-k mod b)
        # (hash() itself turns a -1 into -2, as int and Fraction do)
        h = hash(hash(abs(self.num)) << (-self.k % _HASH_BITS))
        return h if self.num >= 0 else -h

    def __bool__(self):
        return self.num != 0

    def sign(self) -> int:
        return (self.num > 0) - (self.num < 0)

    def floor(self) -> int:
        return self.num >> self.k

    def ceil(self) -> int:
        return -((-self.num) >> self.k)

    def is_integer(self) -> bool:
        return self.k == 0

    def __repr__(self):
        return f"Dyadic({self.num}, {self.k})"

    def __str__(self):
        if self.k == 0:
            return str(self.num)
        return f"{self.num}/2^{self.k}"


def _sign_surd(p: int, q: int) -> int:
    """Sign of p + q*sqrt(2) for integers p, q: the one place that order
    is decided.  Opposite signs compare p^2 with 2*q^2, which are never
    equal for q != 0 since sqrt(2) is irrational."""
    if not q:
        return (p > 0) - (p < 0)
    if not p or (p > 0) == (q > 0) or p * p < 2 * q * q:
        return 1 if q > 0 else -1
    return 1 if p > 0 else -1


class QuadReal:
    """An exact real p + q*sqrt(2) with dyadic parts p, q.

    Equality of the parts is equality of the values since sqrt(2) is
    irrational, and the sign of any element is decidable by comparing
    p^2 with 2*q^2.
    """

    __slots__ = ("rat", "surd")

    def __init__(self, rat, surd=0):
        r = Dyadic._coerce(rat)
        s = Dyadic._coerce(surd)
        if r is NotImplemented or s is NotImplemented:
            raise UsageError("QuadReal parts must be dyadic")
        object.__setattr__(self, "rat", r)
        object.__setattr__(self, "surd", s)

    def __setattr__(self, *_):
        raise AttributeError("QuadReal is immutable")

    @staticmethod
    def _coerce(x) -> "QuadReal":
        if isinstance(x, QuadReal):
            return x
        if isinstance(x, (int, Dyadic, Fraction)):
            return QuadReal(x)
        return NotImplemented

    def __add__(self, other):
        o = QuadReal._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadReal(self.rat + o.rat, self.surd + o.surd)

    __radd__ = __add__

    def __neg__(self):
        return QuadReal(-self.rat, -self.surd)

    def __sub__(self, other):
        o = QuadReal._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Dyadic, Fraction)):
            return QuadReal(self.rat * other, self.surd * other)
        if isinstance(other, QuadReal):
            return QuadReal(
                self.rat * other.rat + 2 * self.surd * other.surd,
                self.rat * other.surd + self.surd * other.rat,
            )
        return NotImplemented

    __rmul__ = __mul__

    def sign(self) -> int:
        """Exact sign: _sign_surd on the parts over a common 2^k."""
        r, s = self.rat, self.surd
        k = max(r.k, s.k)
        return _sign_surd(r.num << (k - r.k), s.num << (k - s.k))

    def _cmp(self, other) -> int:
        o = QuadReal._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, c, d = self.rat, self.surd, o.rat, o.surd
        k = max(a.k, b.k, c.k, d.k)
        return _sign_surd(
            (a.num << (k - a.k)) - (c.num << (k - c.k)),
            (b.num << (k - b.k)) - (d.num << (k - d.k)),
        )

    def __eq__(self, other):
        o = QuadReal._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.rat == o.rat and self.surd == o.surd

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __hash__(self):
        # a rational value hashes as the equal Dyadic, int or Fraction
        return hash(self.rat) if not self.surd else hash((self.rat, self.surd))

    def __bool__(self):
        return bool(self.rat) or bool(self.surd)

    def floor(self) -> int:
        """Exact floor, at a cost independent of the size of the parts.

        With the parts over a common 2^k, N = p + q*sqrt(2) lies strictly
        between the integers p + m and p + m + 1 (q > 0) or p - m - 1 and
        p - m (q < 0), where m = isqrt(2*q^2); so floor(N) is known and
        floor(N / 2^k) = floor(floor(N) / 2^k).
        """
        r, s = self.rat, self.surd
        if not s:
            return r.floor()
        k = max(r.k, s.k)
        p, q = r.num << (k - r.k), s.num << (k - s.k)
        m = isqrt(2 * q * q)
        return (p + m if q > 0 else p - m - 1) >> k

    def ceil(self) -> int:
        n = self.floor()
        return n if self._cmp(n) == 0 else n + 1

    def __repr__(self):
        return f"QuadReal({self.rat!r}, {self.surd!r})"

    def __str__(self):
        return format_scalar(self)


def quad_cmp(a, b) -> int:
    """Exact ordering of two p + q*sqrt(2) values: -1, 0 or 1."""
    return QuadReal._coerce(a)._cmp(b)


SQRT2 = QuadReal(0, 1)

KINDS = ("int", "dyadic", "quad")


@dataclass(frozen=True)
class GroupSpec:
    """A lex-ordered product group; first coordinate most significant.

    The convex subgroups are the suffix subgroups, so the quotient by
    the i-th convex subgroup keeps the first rank-i coordinates.
    """

    kinds: tuple

    def __post_init__(self):
        if not self.kinds:
            raise UsageError("group rank must be positive")
        for kind in self.kinds:
            if kind not in KINDS:
                raise UsageError(f"unknown coordinate kind {kind!r}")

    @property
    def rank(self) -> int:
        return len(self.kinds)

    def quotient(self, i: int) -> "GroupSpec":
        if not 0 <= i < self.rank:
            raise UsageError(f"projection level {i} out of range for rank {self.rank}")
        if i == 0:
            return self
        return GroupSpec(self.kinds[: self.rank - i])

    def coerce_coord(self, kind: str, value):
        if kind == "int":
            if isinstance(value, Dyadic):
                if not value.is_integer():
                    raise UsageError(f"{value} is not an integer")
                return value.num
            if not isinstance(value, int):
                raise UsageError(f"{value!r} is not an integer")
            return value
        if kind == "dyadic":
            d = Dyadic._coerce(value)
            if d is NotImplemented:
                raise UsageError(f"{value!r} is not dyadic")
            return d
        q = QuadReal._coerce(value)
        if q is NotImplemented:
            raise UsageError(f"{value!r} is not a quadratic value")
        return q

    def vec(self, *coords) -> "LexVec":
        return LexVec(self, coords)

    def zero(self) -> "LexVec":
        return LexVec(self, (0,) * self.rank)


DYADIC2 = GroupSpec(("dyadic", "dyadic"))
QUAD2 = GroupSpec(("quad", "dyadic"))


class LexVec:
    """An element of a lex-ordered product group described by a GroupSpec."""

    __slots__ = ("spec", "coords")

    def __init__(self, spec: GroupSpec, coords: Iterable):
        coords = tuple(coords)
        if len(coords) != spec.rank:
            raise UsageError(f"expected {spec.rank} coordinates, got {len(coords)}")
        coords = tuple(
            spec.coerce_coord(kind, c) for kind, c in zip(spec.kinds, coords)
        )
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *_):
        raise AttributeError("LexVec is immutable")

    def _check(self, other: "LexVec"):
        if not isinstance(other, LexVec):
            raise UsageError(f"expected LexVec, got {other!r}")
        if other.spec != self.spec:
            raise UsageError("LexVec group specs do not match")

    def __add__(self, other):
        self._check(other)
        return LexVec(self.spec, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return LexVec(self.spec, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return LexVec(self.spec, tuple(-a for a in self.coords))

    def __mul__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return LexVec(self.spec, tuple(a * n for a in self.coords))

    __rmul__ = __mul__

    def cmp(self, other: "LexVec") -> int:
        self._check(other)
        # both vectors share the spec, so each coordinate pair has one kind
        for a, b in zip(self.coords, other.coords):
            c = (a > b) - (a < b) if isinstance(a, int) else a._cmp(b)
            if c:
                return c
        return 0

    def __eq__(self, other):
        if not isinstance(other, LexVec) or other.spec != self.spec:
            return NotImplemented
        return self.cmp(other) == 0

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def __hash__(self):
        return hash((self.spec, self.coords))

    def __repr__(self):
        return f"LexVec{self.coords!r}"

    def __str__(self):
        return format_lexvec(self)


def lex_cmp(a: LexVec, b: LexVec) -> int:
    """Lexicographic comparison; -1, 0 or 1, first coordinate dominates."""
    return a.cmp(b)


def project(v: LexVec, i: int) -> LexVec:
    """Quotient projection dropping the last i coordinates (order preserving)."""
    spec = v.spec.quotient(i)
    return LexVec(spec, v.coords[: spec.rank])


def in_interval(v: LexVec, lo: LexVec, hi: LexVec) -> bool:
    """True iff lo <= v < hi in lex order."""
    return lo.cmp(v) <= 0 and v.cmp(hi) < 0


# ---------------------------------------------------------------------------
# Textual serialization.  Integers print as decimals, dyadics as "m/2^k",
# quadratic values as "p + q*sqrt2", vectors as "(c1, c2)".  Round trips
# are bit-exact.


def format_scalar(x) -> str:
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Dyadic):
        return str(x)
    if isinstance(x, QuadReal):
        if not x.surd:
            return str(x.rat)
        if not x.rat:
            return f"{x.surd}*sqrt2"
        return f"{x.rat} + {x.surd}*sqrt2"
    if isinstance(x, Fraction):
        return str(x)
    raise UsageError(f"cannot format {x!r}")


def format_lexvec(v: LexVec) -> str:
    return "(" + ", ".join(format_scalar(c) for c in v.coords) + ")"


def _parse_dyadic(text: str, pos: int) -> Dyadic:
    text = text.strip()
    if "/" in text:
        mant, _, den = text.partition("/")
        den = den.strip()
        if not den.startswith("2^"):
            # allow a plain power-of-two denominator as well
            try:
                return Dyadic.from_fraction(Fraction(text))
            except (ValueError, ZeroDivisionError, UsageError):
                raise ParseError(f"bad dyadic {text!r}", pos) from None
        try:
            return Dyadic(int(mant), int(den[2:]))
        except ValueError:
            raise ParseError(f"bad dyadic {text!r}", pos) from None
    try:
        return Dyadic(int(text))
    except ValueError:
        raise ParseError(f"bad dyadic {text!r}", pos) from None


def parse_scalar(text: str, kind: str, pos: int = 0):
    """Parse one coordinate value of the given kind."""
    text = text.strip()
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"bad integer {text!r}", pos) from None
    if kind == "dyadic":
        return _parse_dyadic(text, pos)
    if kind == "quad":
        rat, surd = Dyadic(0), Dyadic(0)
        # split on '+'/'-' at top level, keeping signs
        chunks = []
        cur = ""
        for ch in text:
            if ch in "+-" and cur.strip() and cur.rstrip()[-1] not in "^/*+-":
                chunks.append(cur)
                cur = ch
            else:
                cur += ch
        chunks.append(cur)
        for chunk in chunks:
            chunk = chunk.strip()
            if not chunk:
                continue
            sign = 1
            while chunk and chunk[0] in "+-":
                if chunk[0] == "-":
                    sign = -sign
                chunk = chunk[1:].strip()
            if chunk.endswith("sqrt2"):
                body = chunk[: -len("sqrt2")].rstrip()
                body = body[:-1].rstrip() if body.endswith("*") else body
                coeff = _parse_dyadic(body, pos) if body else Dyadic(1)
                surd = surd + sign * coeff
            else:
                rat = rat + sign * _parse_dyadic(chunk, pos)
        return QuadReal(rat, surd)
    raise UsageError(f"unknown scalar kind {kind!r}")


def parse_lexvec(text: str, spec: GroupSpec) -> LexVec:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError("vector must be parenthesized", 0)
    parts = text[1:-1].split(",")
    if len(parts) != spec.rank:
        raise ParseError(f"expected {spec.rank} coordinates", 0)
    return LexVec(
        spec,
        tuple(parse_scalar(p, kind) for p, kind in zip(parts, spec.kinds)),
    )
