"""Sparse polynomials in x, y, u, v with Laurent-in-z rational coefficients.

Coefficients live in Q[z, z^-1]: every division performed by the
expansion algorithms divides only by leading coefficients of the form
c*z^k, so general rational functions of z never arise.  Division
requests that would leave the Laurent ring are rejected.
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
    def _raw(c: dict) -> "LaurentZ":
        out = LaurentZ.__new__(LaurentZ)
        object.__setattr__(out, "c", c)
        return out

    @staticmethod
    def term(coeff, exp: int = 0) -> "LaurentZ":
        return LaurentZ({exp: coeff})

    @staticmethod
    def zero() -> "LaurentZ":
        return LaurentZ()

    @staticmethod
    def one() -> "LaurentZ":
        return LaurentZ.term(1)

    def is_zero(self) -> bool:
        return not self.c

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

    def __add__(self, other: "LaurentZ") -> "LaurentZ":
        c = dict(self.c)
        for e, q in other.c.items():
            s = c.get(e, 0) + q
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        return LaurentZ._raw(c)

    def __neg__(self) -> "LaurentZ":
        return LaurentZ._raw({e: -q for e, q in self.c.items()})

    def __sub__(self, other: "LaurentZ") -> "LaurentZ":
        return self + (-other)

    def __mul__(self, other: "LaurentZ") -> "LaurentZ":
        c = {}
        for e1, q1 in self.c.items():
            for e2, q2 in other.c.items():
                e = e1 + e2
                s = c.get(e, 0) + q1 * q2
                if s:
                    c[e] = s
                else:
                    c.pop(e, None)
        return LaurentZ._raw(c)

    def scaled(self, coeff, shift: int = 0) -> "LaurentZ":
        """self * coeff * z^shift."""
        coeff = _coeff(coeff)
        if not coeff:
            return LaurentZ.zero()
        return LaurentZ._raw({e + shift: _coeff(q * coeff) for e, q in self.c.items()})

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
    """Sparse polynomial in x, y, u, v over LaurentZ coefficients.

    Term iteration and serialization use graded-lex order on the
    (x, y, u, v) exponent vector, highest terms first, so that output
    is deterministic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for m, c in terms.items():
                if not isinstance(c, LaurentZ):
                    c = LaurentZ.term(c)
                if not c.is_zero():
                    t[m] = c
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
        return MPoly.constant(LaurentZ.one())

    @staticmethod
    def constant(c: LaurentZ) -> "MPoly":
        return MPoly._raw({MONE: c} if not c.is_zero() else {})

    @staticmethod
    def var(name: str) -> "MPoly":
        if name == "z":
            return MPoly.constant(LaurentZ.term(1, 1))
        if name not in VAR_INDEX:
            raise UsageError(f"unknown variable {name!r}")
        m = [0, 0, 0, 0]
        m[VAR_INDEX[name]] = 1
        return MPoly._raw({tuple(m): LaurentZ.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MPoly") -> "MPoly":
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t[m] + c if m in t else c
            if s.is_zero():
                t.pop(m, None)
            else:
                t[m] = s
        return MPoly._raw(t)

    def __neg__(self) -> "MPoly":
        return MPoly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        t = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                p = c1 * c2
                if m in t:
                    s = t[m] + p
                    if s.is_zero():
                        del t[m]
                    else:
                        t[m] = s
                else:
                    t[m] = p
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
        return MPoly._raw(
            {m: c.scaled(coeff, zshift) for m, c in self.terms.items()}
        ) if coeff else MPoly.zero()

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((m, c) for m, c in self.terms.items()))

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
        """The constant coefficient, if the polynomial is constant in x,y,u,v."""
        if not self.terms:
            return LaurentZ.zero()
        if set(self.terms) != {MONE}:
            raise UsageError("polynomial is not constant in x, y, u, v")
        return self.terms[MONE]

    def sorted_terms(self) -> Iterator[Tuple[Monomial, LaurentZ]]:
        for m in sorted(self.terms, key=_grade, reverse=True):
            yield m, self.terms[m]

    def __repr__(self):
        return f"MPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def div_in_var(f: MPoly, g: MPoly, var: int) -> Tuple[MPoly, MPoly]:
    """Euclidean division f = q*g + r in the chosen variable.

    Requires the leading coefficient of g in var to be a unit c*z^k of
    the Laurent coefficient ring (constant in the other variables); q
    and r are then unique with deg_var(r) < deg_var(g).
    """
    if g.is_zero():
        raise UsageError("division by zero polynomial")
    dg = g.deg(var)
    lead = g.coeff_in_var(var, dg)
    if set(lead.terms) != {MONE}:
        raise UsageError("division unsupported: leading coefficient not a unit")
    unit = lead.terms[MONE].unit_parts()
    if unit is None:
        raise UsageError("division unsupported: leading coefficient not a unit")
    c, k = unit
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
        self.pos = 0
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
                return MPoly.constant(LaurentZ.term(1, e))
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
                return MPoly.constant(LaurentZ.term(Fraction(num, den))), False
            return MPoly.constant(LaurentZ.term(num)), False
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
