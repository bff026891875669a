"""Sparse polynomials in x, y, u, v and z^(+-1) over Q.

A polynomial is one dict from exponent vectors (x, y, u, v, z) to
nonzero rationals; only the z exponent may be negative.  Every division
performed by the expansion algorithms divides only by leading
coefficients of the form c*z^k, so general rational functions of z
never arise.  Division requests that would leave the ring are rejected.
``LaurentZ`` is the z-coefficient of one (x, y, u, v) monomial, as an
expansion term reports and prints it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from .errors import ParseError, UsageError

VARS = ("x", "y", "u", "v")
VAR_INDEX = {name: i for i, name in enumerate(VARS)}
Monomial = Tuple[int, int, int, int]
MONE: Monomial = (0, 0, 0, 0)


def _coeff(v):
    """Coefficients are kept as plain ints whenever the value is integral,
    falling back to Fraction; the two compare and hash identically."""
    if isinstance(v, int):
        return v
    f = Fraction(v)
    return f.numerator if f.denominator == 1 else f


class LaurentZ:
    """A Laurent polynomial in z over Q, stored as {exponent: coefficient}."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, q in coeffs.items():
                q = _coeff(q)
                if q:
                    c[e] = q
        object.__setattr__(self, "c", c)

    def __setattr__(self, *_):
        raise AttributeError("LaurentZ is immutable")

    @staticmethod
    def term(coeff, exp: int = 0) -> "LaurentZ":
        return LaurentZ({exp: coeff})

    def unit_parts(self) -> Optional[Tuple[Fraction, int]]:
        """(c, k) if this equals c*z^k, else None."""
        if len(self.c) != 1:
            return None
        ((e, q),) = self.c.items()
        return q, e

    def ord_z(self) -> int:
        if not self.c:
            raise UsageError("ord of zero undefined")
        return min(self.c)

    def __eq__(self, other):
        if not isinstance(other, LaurentZ):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __repr__(self):
        return f"LaurentZ({self.c!r})"

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c, reverse=True):
            q = self.c[e]
            if e == 0:
                parts.append(str(q))
            elif q == 1:
                parts.append(_zpow(e))
            elif q == -1:
                parts.append("-" + _zpow(e))
            else:
                parts.append(f"{q}*{_zpow(e)}")
        return _signed_sum(parts)


def _zpow(e: int) -> str:
    return "z" if e == 1 else f"z^{e}"


def _signed_sum(parts: List[str]) -> str:
    """Rendered terms joined by " + ", or by " - " before a term that
    starts with a minus sign."""
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _grade(m: Monomial):
    return (sum(m), m)


class MPoly:
    """Sparse polynomial in x, y, u, v and z^(+-1) over Q.

    ``terms`` maps each exponent vector (x, y, u, v, z) to its nonzero
    coefficient.  Term iteration and serialization group the terms by
    their (x, y, u, v) part in graded-lex order, highest first, so that
    output is deterministic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """From {(x, y, u, v): LaurentZ or rational}."""
        t = {}
        if terms:
            for m, c in terms.items():
                for e, q in (c.c if isinstance(c, LaurentZ) else {0: c}).items():
                    q = _coeff(q)
                    if q:
                        t[tuple(m) + (e,)] = q
        object.__setattr__(self, "terms", t)

    def __setattr__(self, *_):
        raise AttributeError("MPoly is immutable")

    @staticmethod
    def _raw(terms: dict) -> "MPoly":
        out = MPoly.__new__(MPoly)
        object.__setattr__(out, "terms", terms)
        return out

    @staticmethod
    def zero() -> "MPoly":
        return MPoly._raw({})

    @staticmethod
    def one() -> "MPoly":
        return MPoly._raw({MONE + (0,): 1})

    @staticmethod
    def var(name: str) -> "MPoly":
        if name == "z":
            return MPoly._raw({MONE + (1,): 1})
        if name not in VAR_INDEX:
            raise UsageError(f"unknown variable {name!r}")
        m = [0, 0, 0, 0, 0]
        m[VAR_INDEX[name]] = 1
        return MPoly._raw({tuple(m): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MPoly") -> "MPoly":
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m, 0) + c
            if s:
                t[m] = s
            else:
                del t[m]
        return MPoly._raw(t)

    def __neg__(self) -> "MPoly":
        return MPoly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        t = {}
        pairs = other.terms.items()
        for (x1, y1, u1, v1, z1), c1 in self.terms.items():
            for (x2, y2, u2, v2, z2), c2 in pairs:
                m = (x1 + x2, y1 + y2, u1 + u2, v1 + v2, z1 + z2)
                s = t.get(m, 0) + c1 * c2
                if s:
                    t[m] = s
                else:
                    del t[m]
        return MPoly._raw(t)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise UsageError("negative polynomial power")
        out = MPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scaled(self, coeff, zshift: int = 0) -> "MPoly":
        """self * coeff * z^zshift."""
        coeff = _coeff(coeff)
        if not coeff:
            return MPoly.zero()
        return MPoly._raw({
            (x, y, u, v, z + zshift): _coeff(c * coeff)
            for (x, y, u, v, z), c in self.terms.items()
        })

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def deg(self, var: int) -> int:
        """Degree in the given variable index; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m[var] for m in self.terms)

    def uses_only(self, allowed: Tuple[int, ...]) -> bool:
        return all(
            all(m[i] == 0 for i in range(4) if i not in allowed) for m in self.terms
        )

    def coeff_in_var(self, var: int, d: int) -> "MPoly":
        """Coefficient of var^d, as a polynomial with var exponent zero."""
        t = {}
        for m, c in self.terms.items():
            if m[var] == d:
                mm = list(m)
                mm[var] = 0
                t[tuple(mm)] = c
        return MPoly._raw(t)

    def mul_var_pow(self, var: int, d: int) -> "MPoly":
        t = {}
        for m, c in self.terms.items():
            mm = list(m)
            mm[var] += d
            t[tuple(mm)] = c
        return MPoly._raw(t)

    def as_laurent(self) -> LaurentZ:
        """The coefficient in z, if the polynomial is constant in x,y,u,v."""
        if any(m[:4] != MONE for m in self.terms):
            raise UsageError("polynomial is not constant in x, y, u, v")
        return LaurentZ({m[4]: c for m, c in self.terms.items()})

    def sorted_terms(self) -> Iterator[Tuple[Monomial, LaurentZ]]:
        """Each (x, y, u, v) monomial with its coefficient in z."""
        groups = {}
        for m, c in self.terms.items():
            groups.setdefault(m[:4], {})[m[4]] = c
        for m in sorted(groups, key=_grade, reverse=True):
            yield m, LaurentZ(groups[m])

    def __repr__(self):
        return f"MPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def div_in_var(f: MPoly, g: MPoly, var: int) -> Tuple[MPoly, MPoly]:
    """Euclidean division f = q*g + r in the chosen variable.

    Requires the leading coefficient of g in var to be a unit c*z^k:
    one term, free of the other variables.  q and r are then unique
    with deg_var(r) < deg_var(g).
    """
    if g.is_zero():
        raise UsageError("division by zero polynomial")
    dg = g.deg(var)
    lead = g.coeff_in_var(var, dg).terms
    if len(lead) != 1 or any(m[:4] != MONE for m in lead):
        raise UsageError("division unsupported: leading coefficient not a unit")
    ((m, c),) = lead.items()
    k = m[4]
    inv = Fraction(1, c) if isinstance(c, int) else 1 / c
    q = MPoly.zero()
    r = f
    while not r.is_zero() and r.deg(var) >= dg:
        dr = r.deg(var)
        t = r.coeff_in_var(var, dr).scaled(inv, -k).mul_var_pow(var, dr - dg)
        q = q + t
        r = r - t * g
    return q, r


# ---------------------------------------------------------------------------
# Expression parser.  Grammar: variables x, y, z, u, v; integer and
# rational literals; + - * ^ with parentheses.  Exponents are integers,
# negative only on z.  Implicit multiplication is a syntax error.


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        self._scan()
        self.i = 0

    def _scan(self):
        text = self.text
        pos = 0
        while pos < len(text):
            ch = text[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch.isdigit():
                start = pos
                while pos < len(text) and text[pos].isdigit():
                    pos += 1
                self.tokens.append(("num", int(text[start:pos]), start))
                continue
            if ch.isalpha():
                start = pos
                while pos < len(text) and text[pos].isalpha():
                    pos += 1
                self.tokens.append(("name", text[start:pos], start))
                continue
            if ch in "+-*^()/":
                self.tokens.append((ch, ch, pos))
                pos += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", pos)
        self.tokens.append(("end", None, len(text)))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


class _Parser:
    def __init__(self, text: str):
        self.lex = _Lexer(text)

    def parse(self) -> MPoly:
        p = self.expr()
        kind, _, pos = self.lex.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", pos)
        return p

    def expr(self) -> MPoly:
        sign = 1
        while self.lex.peek()[0] in ("+", "-"):
            if self.lex.next()[0] == "-":
                sign = -sign
        p = self.term().scaled(sign)
        while self.lex.peek()[0] in ("+", "-"):
            op = self.lex.next()[0]
            t = self.term()
            p = p + t if op == "+" else p - t
        return p

    def term(self) -> MPoly:
        p = self.factor()
        while self.lex.peek()[0] == "*":
            self.lex.next()
            p = p * self.factor()
        return p

    def factor(self) -> MPoly:
        base, is_z = self.base()
        if self.lex.peek()[0] == "^":
            self.lex.next()
            sign = 1
            while self.lex.peek()[0] == "-":
                self.lex.next()
                sign = -sign
            kind, val, pos = self.lex.next()
            if kind != "num":
                raise ParseError("expected integer exponent", pos)
            e = sign * val
            if e < 0:
                if not is_z:
                    raise ParseError("negative exponent allowed only on z", pos)
                return MPoly._raw({MONE + (e,): 1})
            return base ** e
        return base

    def base(self) -> Tuple[MPoly, bool]:
        kind, val, pos = self.lex.next()
        if kind == "num":
            num = val
            if self.lex.peek()[0] == "/":
                self.lex.next()
                kind2, den, pos2 = self.lex.next()
                if kind2 != "num" or den == 0:
                    raise ParseError("bad rational literal", pos2)
                return MPoly({MONE: Fraction(num, den)}), False
            return MPoly({MONE: num}), False
        if kind == "name":
            if val == "z":
                return MPoly.var("z"), True
            if val in VAR_INDEX:
                return MPoly.var(val), False
            raise ParseError(f"unknown variable {val!r}", pos)
        if kind == "(":
            p = self.expr()
            kind2, _, pos2 = self.lex.next()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            return p, False
        if kind == "-":
            p, is_z = self.base()
            return -p, is_z
        raise ParseError("expected a value", pos)


def parse_poly(text: str) -> MPoly:
    """Parse an expression in x, y, z, u, v into an exact MPoly."""
    return _Parser(text).parse()


def _format_monomial_part(m: Monomial) -> str:
    parts = []
    for name, e in zip(VARS, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: MPoly) -> str:
    """Canonical text form: graded-lex term order, explicit signs."""
    if p.is_zero():
        return "0"
    rendered = []
    for m, c in p.sorted_terms():
        mono = _format_monomial_part(m)
        unit = c.unit_parts()
        if unit is not None:
            q, e = unit
            bits = []
            if q == -1 and (e != 0 or mono):
                prefix = "-"
            elif q != 1 or (e == 0 and not mono):
                bits.append(str(q))
                prefix = ""
            else:
                prefix = ""
            if e != 0:
                bits.append(_zpow(e))
            if mono:
                bits.append(mono)
            rendered.append(prefix + "*".join(bits))
        else:
            coeff = f"({c})"
            rendered.append(f"{coeff}*{mono}" if mono else coeff)
    return _signed_sum(rendered)
