"""Exact scalars and the rank-2 values built from them.

Every value is a pair (first, second), ordered lexicographically with
the first coordinate most significant.  The second coordinate is a
dyadic rational m/2^k.  The first is a dyadic rational in the group
DYADIC2 (forms P3 and Q3) or a real p + q*sqrt(2) with dyadic p, q in
the group QUAD2 (form C5).

No floating point is used anywhere; every comparison is decided by
integer arithmetic, and a scalar compares exactly with any int or
Fraction, dyadic or not.  Searches and valuations run on integers, a
first coordinate encoded by _lattice and a value decoded by _decode, so
the scalars keep only + and products with an int or a Dyadic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from sys import hash_info
from typing import Optional, Tuple

from .errors import ParseError, UsageError

_HASH_BITS = hash_info.modulus.bit_length()


class _Ordered:
    """The five comparisons, each read from ``_cmp``: the sign of
    self - other as an int, or NotImplemented for a foreign type."""

    __slots__ = ()

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


class Dyadic(_Ordered):
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

    def __mul__(self, other):
        o = Dyadic._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Dyadic(self.num * o.num, self.k + o.k)

    __rmul__ = __mul__

    def _cmp(self, other) -> int:
        if isinstance(other, Dyadic):
            lhs = self.num << max(0, other.k - self.k)
            rhs = other.num << max(0, self.k - other.k)
        elif isinstance(other, (int, Fraction)):
            # cross-multiplied, so exact for a rational that is not dyadic
            lhs = self.num * other.denominator
            rhs = other.numerator << self.k
        elif isinstance(other, QuadReal):
            return -other._cmp(self)
        else:
            return NotImplemented
        return (lhs > rhs) - (lhs < rhs)

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


def _lattice(x) -> Optional[Tuple[int, int, int]]:
    """A first coordinate as integers (p, q, k) with value
    (p + q*sqrt2)/2^k, or None for a rational that is not dyadic."""
    if isinstance(x, Fraction) and x.denominator & (x.denominator - 1):
        return None
    x = QuadReal._coerce(x)
    if x is NotImplemented:
        raise UsageError("first coordinate must be a dyadic or quadratic scalar")
    return x._ints()


def _decode(quad: bool, p: int, q: int, fk: int, s: int, sk: int) -> LexVec:
    """((p + q*sqrt2)/2^fk, s/2^sk), a QuadReal first coordinate if quad."""
    first = QuadReal(Dyadic(p, fk), Dyadic(q, fk)) if quad else Dyadic(p, fk)
    return LexVec(first, Dyadic(s, sk))


class QuadReal(_Ordered):
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

    def _ints(self):
        """Integers (p, q, k) with self = (p + q*sqrt2)/2^k."""
        r, s = self.rat, self.surd
        k = max(r.k, s.k)
        return r.num << (k - r.k), s.num << (k - s.k), k

    def __add__(self, other):
        o = QuadReal._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadReal(self.rat + o.rat, self.surd + o.surd)

    def __mul__(self, other):
        if isinstance(other, (int, Dyadic, Fraction)):
            return QuadReal(self.rat * other, self.surd * other)
        return NotImplemented

    __rmul__ = __mul__

    def sign(self) -> int:
        """Exact sign: _sign_surd on the parts over a common 2^k."""
        p, q, _ = self._ints()
        return _sign_surd(p, q)

    def _cmp(self, other) -> int:
        p, q, k = self._ints()
        if isinstance(other, QuadReal):
            op, oq, ok = other._ints()
            up, oup = max(0, ok - k), max(0, k - ok)
            return _sign_surd((p << up) - (op << oup), (q << up) - (oq << oup))
        if isinstance(other, Dyadic):
            n, d = other.num, 1 << other.k
        elif isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator
        else:
            return NotImplemented
        # self - n/d, times d * 2^k > 0
        return _sign_surd(p * d - (n << k), q * d)

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
        if not self.surd:
            return self.rat.floor()
        p, q, k = self._ints()
        m = isqrt(2 * q * q)
        return (p + m if q > 0 else p - m - 1) >> k

    def ceil(self) -> int:
        n = self.floor()
        return n if self._cmp(n) == 0 else n + 1

    def __repr__(self):
        return f"QuadReal({self.rat!r}, {self.surd!r})"

    def __str__(self):
        return format_scalar(self)


SQRT2 = QuadReal(0, 1)


class LexVec(_Ordered):
    """A rank-2 value (first, second) in lexicographic order.

    ``first`` is a Dyadic or a QuadReal and ``second`` a Dyadic.  The
    operations work on the two scalars as they are; GroupSpec.vec is the
    one place where coordinates are checked and coerced.
    """

    __slots__ = ("first", "second")

    def __init__(self, first, second):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    def __setattr__(self, *_):
        raise AttributeError("LexVec is immutable")

    @property
    def coords(self) -> tuple:
        return self.first, self.second

    def __add__(self, other):
        if not isinstance(other, LexVec):
            return NotImplemented
        return LexVec(self.first + other.first, self.second + other.second)

    def __mul__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return LexVec(self.first * n, self.second * n)

    __rmul__ = __mul__

    def _cmp(self, other) -> int:
        if not isinstance(other, LexVec):
            return NotImplemented
        return self.first._cmp(other.first) or self.second._cmp(other.second)

    def __hash__(self):
        return hash((self.first, self.second))

    def __repr__(self):
        return f"LexVec({self.first!r}, {self.second!r})"

    def __str__(self):
        return format_lexvec(self)


@dataclass(frozen=True)
class GroupSpec:
    """The value group of a form: its first coordinate is a QuadReal in
    QUAD2 and a Dyadic in DYADIC2; the second is always a Dyadic."""

    quad: bool

    def vec(self, first, second) -> LexVec:
        """The value (first, second), each coordinate coerced to this
        group's scalar; a nonzero sqrt2 part is rejected in DYADIC2."""
        if isinstance(first, QuadReal) and not self.quad:
            if first.surd:
                raise UsageError(f"first coordinate {format_scalar(first)} is not dyadic")
            first = first.rat
        f = (QuadReal if self.quad else Dyadic)._coerce(first)
        s = Dyadic._coerce(second)
        if f is NotImplemented or s is NotImplemented:
            raise UsageError(f"({first!r}, {second!r}) is not a value of this group")
        return LexVec(f, s)

    def zero(self) -> LexVec:
        return self.vec(0, 0)


DYADIC2 = GroupSpec(quad=False)
QUAD2 = GroupSpec(quad=True)


# ---------------------------------------------------------------------------
# Textual serialization.  Dyadics print as "m/2^k", quadratic values as
# "p + q*sqrt2", values as "(first, second)".  Round trips are bit-exact.


def format_scalar(x) -> str:
    if isinstance(x, (int, Dyadic, Fraction)):
        return str(x)
    if isinstance(x, QuadReal):
        if not x.surd:
            return str(x.rat)
        if not x.rat:
            return f"{x.surd}*sqrt2"
        return f"{x.rat} + {x.surd}*sqrt2"
    raise UsageError(f"cannot format {x!r}")


def format_lexvec(v: LexVec) -> str:
    return f"({format_scalar(v.first)}, {format_scalar(v.second)})"


def _parse_dyadic(text: str) -> Dyadic:
    text = text.strip()
    if "/" in text:
        mant, _, den = text.partition("/")
        den = den.strip()
        if not den.startswith("2^"):
            # allow a plain power-of-two denominator as well
            try:
                return Dyadic.from_fraction(Fraction(text))
            except (ValueError, ZeroDivisionError, UsageError):
                raise ParseError(f"bad dyadic {text!r}", 0) from None
        try:
            return Dyadic(int(mant), int(den[2:]))
        except ValueError:
            raise ParseError(f"bad dyadic {text!r}", 0) from None
    try:
        return Dyadic(int(text))
    except ValueError:
        raise ParseError(f"bad dyadic {text!r}", 0) from None


def parse_scalar(text: str):
    """Parse one coordinate value: a QuadReal if the text has a sqrt2
    part, else a Dyadic."""
    text = text.strip()
    if "sqrt2" not in text:
        return _parse_dyadic(text)
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
            coeff = _parse_dyadic(body) if body else Dyadic(1)
            surd = surd + sign * coeff
        else:
            rat = rat + sign * _parse_dyadic(chunk)
    return QuadReal(rat, surd)
