import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from valsem.errors import ParseError, UsageError
from valsem.exact import (
    DYADIC2,
    QUAD2,
    SQRT2,
    Dyadic,
    LexVec,
    QuadReal,
    format_lexvec,
    format_scalar,
    parse_scalar,
)
from valsem.gensemi import GenSemigroup

dyadics = st.builds(Dyadic, st.integers(-10**6, 10**6), st.integers(0, 40))
quads = st.builds(QuadReal, dyadics, dyadics)
big_dyadics = st.builds(Dyadic, st.integers(-(2**200), 2**200), st.integers(0, 40))
big_quads = st.builds(QuadReal, big_dyadics, big_dyadics)
# an odd factor in the denominator, so most are not dyadic
odd_fractions = st.builds(
    lambda n, odd, j: Fraction(n, (2 * odd + 1) << j),
    st.integers(-10**6, 10**6), st.integers(0, 5000), st.integers(0, 8),
)


# --- oracles ---------------------------------------------------------------


def sqrt2_interval(bits: int):
    """Rational lo < sqrt(2) < hi with hi - lo = 2^-bits."""
    root = math.isqrt(2 << (2 * bits))
    return Fraction(root, 1 << bits), Fraction(root + 1, 1 << bits)


def sign_oracle(p: Fraction, q: Fraction) -> int:
    """Sign of p + q*sqrt(2) by adaptive interval arithmetic."""
    if p == 0 and q == 0:
        return 0
    bits = 64
    while True:
        lo, hi = sqrt2_interval(bits)
        vals = (p + q * lo, p + q * hi)
        if min(vals) > 0:
            return 1
        if max(vals) < 0:
            return -1
        bits *= 2
        assert bits <= 1 << 16, "oracle failed to converge"


def parts(x) -> tuple:
    """The rational and sqrt2 parts of a scalar or an int, as Fractions."""
    if isinstance(x, QuadReal):
        return x.rat.as_fraction(), x.surd.as_fraction()
    return Fraction(x.as_fraction() if isinstance(x, Dyadic) else x), Fraction(0)


def difference(a, b) -> tuple:
    """The parts of a - b, as Fractions: the scalars have no subtraction."""
    (ar, asurd), (br, bsurd) = parts(a), parts(b)
    return ar - br, asurd - bsurd


def parse_lexvec(text: str, spec) -> LexVec:
    """Read back a value printed by format_lexvec, as the CLI prints it."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError("vector must be parenthesized", 0)
    first, second = text[1:-1].split(",")
    return spec.vec(parse_scalar(first), parse_scalar(second))


class TestDyadic:
    def test_canonical_form(self):
        d = Dyadic(4, 3)
        assert (d.num, d.k) == (1, 1)
        assert (Dyadic(0, 7).num, Dyadic(0, 7).k) == (0, 0)
        assert Dyadic(3, -2) == Dyadic(12)

    def test_fraction_round_trip(self):
        d = Dyadic(21, 2)
        assert Dyadic.from_fraction(d.as_fraction()) == d
        with pytest.raises(UsageError):
            Dyadic.from_fraction(Fraction(1, 3))

    def test_floor_ceil(self):
        assert Dyadic(5, 1).floor() == 2
        assert Dyadic(5, 1).ceil() == 3
        assert Dyadic(-5, 1).floor() == -3
        assert Dyadic(-5, 1).ceil() == -2
        assert Dyadic(6).floor() == Dyadic(6).ceil() == 6

    @given(dyadics, dyadics)
    @settings(max_examples=80, deadline=None)
    def test_arithmetic_matches_fractions(self, a, b):
        fa, fb = a.as_fraction(), b.as_fraction()
        assert (a + b).as_fraction() == fa + fb
        assert (a + Dyadic(-b.num, b.k)).as_fraction() == fa - fb
        assert (a * b).as_fraction() == fa * fb
        assert (a < b) == (fa < fb)
        assert (a == b) == (fa == fb)

    @given(dyadics)
    @settings(max_examples=50, deadline=None)
    def test_floor_is_fraction_floor(self, a):
        fa = a.as_fraction()
        assert a.floor() == fa.numerator // fa.denominator

    def test_int_coercion(self):
        assert Dyadic(1, 1) + 1 == Dyadic(3, 1)
        assert 2 * Dyadic(1, 2) == Dyadic(1, 1)
        assert Dyadic(3) < 4 and Dyadic(3) > 2


class TestHash:
    @given(st.integers(-(2**130), 2**130), st.integers(0, 200))
    @settings(max_examples=500)
    def test_dyadic_hash_is_fraction_hash(self, n, k):
        assert hash(Dyadic(n, k)) == hash(Fraction(n, 2**k))

    @pytest.mark.parametrize(
        "n,k", [(-1, 0), (1, 0), (-1, 1), (3, 60), (-5, 61), (7, 62), (-9, 200)]
    )
    def test_equal_values_hash_equal(self, n, k):
        # -1 hashes as -2, and 61 is the exponent of the 64-bit hash modulus
        values = [Fraction(n, 2**k), Dyadic(n, k), QuadReal(Dyadic(n, k))]
        if k == 0:
            values.append(n)
        assert len({hash(v) for v in values}) == 1
        assert len(set(values)) == 1

    def test_one_set_element_per_value(self):
        assert len({3, Fraction(3), Dyadic(3), QuadReal(3)}) == 1
        assert len({Fraction(3, 4), Dyadic(3, 2), QuadReal(Dyadic(3, 2))}) == 1
        assert len({QuadReal(3), QuadReal(3, 1)}) == 2


class TestQuadReal:
    def test_sign_oracle_bulk(self):
        rng = random.Random(20240817)
        for _ in range(10_000):
            p = Dyadic(rng.randint(-999, 999), rng.randint(0, 10))
            q = Dyadic(rng.randint(-999, 999), rng.randint(0, 10))
            x = QuadReal(p, q)
            assert x.sign() == sign_oracle(p.as_fraction(), q.as_fraction())

    def test_near_cancellation(self):
        # 1393/985 is a continued-fraction convergent just below sqrt(2)
        x = QuadReal(Fraction(-1393, 1), 985)
        assert x.sign() == 1
        # 577/408 sits just above
        y = QuadReal(Fraction(-577, 1), 408)
        assert y.sign() == -1

    def test_sqrt2_constant(self):
        # the parts (0, 1), between the convergents 1393/985 and 577/408
        assert parts(SQRT2) == (0, 1)
        assert Fraction(1393, 985) < SQRT2 < Fraction(577, 408)
        assert SQRT2 > 1 and 1 < SQRT2
        assert SQRT2 < 2 and Dyadic(2) > SQRT2

    @given(quads, quads)
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b):
        assert a + b == b + a
        assert a * b.rat == b.rat * a and a * 3 == 3 * a
        assert a + QuadReal(*difference(0, a)) == QuadReal(0)
        assert QuadReal(*difference(a, b)) + b == a

    @given(quads, quads, quads)
    @settings(max_examples=40, deadline=None)
    def test_distributivity_and_order(self, a, b, c):
        # a product takes an int or a Dyadic, which the rational part is
        d = a.rat
        assert (b + c) * d == b * d + c * d
        assert (b + c) * -5 == b * -5 + c * -5
        # total order transitivity on a concrete triple
        lo, mid, hi = sorted([a, b, c])
        assert lo <= mid <= hi and lo <= hi

    def test_order_matches_difference_sign(self):
        # parts over different powers of two, and equal values, against
        # the sign of the difference
        rng = random.Random(20240818)

        def part():
            return Dyadic(rng.randint(-999, 999), rng.randint(0, 12))

        for _ in range(2500):
            a = QuadReal(part(), part())
            b = rng.choice([QuadReal(part(), part()), QuadReal(a.rat, part()),
                            QuadReal(a.rat, a.surd)])
            c = sign_oracle(*difference(a, b))
            assert (a < b, a <= b, a > b, a >= b) == (c < 0, c <= 0, c > 0, c >= 0)
            assert (b > a, b == a, b < a) == (c < 0, c == 0, c > 0)
            n = rng.randint(-30, 30)
            s = sign_oracle(*difference(a, n))
            assert (a < n, a == n, a > n) == (s < 0, s == 0, s > 0)

    def test_floor_ceil(self):
        assert SQRT2.floor() == 1 and SQRT2.ceil() == 2
        assert (5 * SQRT2).floor() == 7  # 7.07...
        x = QuadReal(Fraction(5, 4))
        assert x.floor() == 1 and x.ceil() == 2
        assert QuadReal(3).ceil() == 3
        assert QuadReal(0, -1).floor() == -2 and QuadReal(0, -1).ceil() == -1

    @given(quads)
    @settings(max_examples=60, deadline=None)
    def test_floor_bracket(self, x):
        n = x.floor()
        assert x >= n and x < n + 1

    @given(big_quads)
    @settings(max_examples=200, deadline=None)
    def test_floor_bracket_huge_parts(self, x):
        n = x.floor()
        assert x >= n and x < n + 1


class TestFractionComparison:
    """A scalar compares exactly with any Fraction; one that is not dyadic
    is never equal to it."""

    @given(dyadics, odd_fractions)
    @example(Dyadic(1), Fraction(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_dyadic(self, a, f):
        fa = a.as_fraction()
        assert (a == f, f == a, a != f) == (fa == f, fa == f, fa != f)
        assert (a < f, a <= f, a > f, a >= f) == (fa < f, fa <= f, fa > f, fa >= f)
        assert (f < a, f > a) == (f < fa, f > fa)

    @given(dyadics, dyadics, odd_fractions)
    @example(Dyadic(1), Dyadic(0), Fraction(1, 3))
    @example(Dyadic(-1393), Dyadic(985), Fraction(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_quad_with_zero_and_nonzero_surd(self, p, q, f):
        for x in (QuadReal(p), QuadReal(p, q)):
            c = sign_oracle(x.rat.as_fraction() - f, x.surd.as_fraction())
            assert (x == f, f == x, x != f) == (c == 0, c == 0, c != 0)
            assert (x < f, x <= f, x > f, x >= f) == (c < 0, c <= 0, c > 0, c >= 0)
            assert (f < x, f > x) == (c > 0, c < 0)


class TestLexVec:
    def test_lex_order_first_coordinate_dominates(self):
        a = DYADIC2.vec(1, 1000)
        b = DYADIC2.vec(Dyadic(3, 1), -1000)
        assert a < b and not b < a and a <= b and b > a and b >= a

    def test_slotted_pair(self):
        v = QUAD2.vec(SQRT2, Dyadic(-3, 1))
        assert LexVec.__slots__ == ("first", "second") and not hasattr(v, "__dict__")
        assert v.coords == (v.first, v.second) == (SQRT2, Dyadic(-3, 1))
        assert DYADIC2.vec(1, 2).coords == (Dyadic(1), Dyadic(2))
        with pytest.raises(AttributeError):
            v.first = Dyadic(0)

    def test_group_operations(self):
        a = DYADIC2.vec(Dyadic(1, 1), 2)
        b = DYADIC2.vec(1, -1)
        assert a + b == DYADIC2.vec(Dyadic(3, 1), 1)
        assert a + DYADIC2.zero() == a
        assert 3 * a == DYADIC2.vec(Dyadic(3, 1), 6)
        # a witness summed up, as the bench checks a tilde value: a QuadReal
        # first coordinate times an int, added to the group's zero
        g = QUAD2.vec(QuadReal(Dyadic(1, 1), 2), Dyadic(-3, 2))
        assert g * 3 == 3 * g == QUAD2.vec(QuadReal(Dyadic(3, 1), 6), Dyadic(-9, 2))
        assert QUAD2.zero() + g * 2 == g + g

    def test_spec_mismatch_rejected(self):
        # GroupSpec.vec checks each coordinate, and GenSemigroup passes
        # every generator through it
        with pytest.raises(UsageError):
            DYADIC2.vec(SQRT2, 1)
        with pytest.raises(UsageError):
            QUAD2.vec(1, SQRT2)
        with pytest.raises(UsageError):
            DYADIC2.vec(Fraction(1, 3), 0)
        with pytest.raises(UsageError):
            GenSemigroup(DYADIC2, [QUAD2.vec(QuadReal(1, 1), 0)])
        assert DYADIC2.vec(QuadReal(3), 1) == DYADIC2.vec(3, 1)
        assert isinstance(DYADIC2.vec(QuadReal(3), 1).first, Dyadic)
        assert isinstance(QUAD2.vec(3, 1).first, QuadReal)


class TestSerialization:
    def test_scalar_round_trip(self):
        cases = [
            (Dyadic(21, 2), "21/2^2"),
            (Dyadic(-3), "-3"),
            (QuadReal(Dyadic(1, 1), Dyadic(-3, 2)), "1/2^1 + -3/2^2*sqrt2"),
            (QuadReal(0, 1), "1*sqrt2"),
        ]
        for value, _ in cases:
            assert parse_scalar(format_scalar(value)) == value

    def test_quad_text_variants(self):
        assert parse_scalar("sqrt2") == SQRT2
        assert parse_scalar("-sqrt2") == QuadReal(0, -1)
        assert parse_scalar("3 - 2*sqrt2") == QuadReal(3, -2)
        assert parse_scalar("1/2^1 + sqrt2") == QuadReal(Dyadic(1, 1), 1)

    def test_plain_fraction_denominator(self):
        assert parse_scalar("21/4") == Dyadic(21, 2)
        with pytest.raises(ParseError):
            parse_scalar("1/3")

    def test_lexvec_round_trip(self):
        v = QUAD2.vec(QuadReal(Dyadic(5, 1), 2), Dyadic(-7, 3))
        assert parse_lexvec(format_lexvec(v), QUAD2) == v
        w = DYADIC2.vec(5, -2)
        assert format_lexvec(w) == "(5, -2)"
        assert parse_lexvec("(5, -2)", DYADIC2) == w

    @given(quads, dyadics)
    @settings(max_examples=60, deadline=None)
    def test_quad_vec_round_trip(self, a, b):
        v = QUAD2.vec(a, b)
        assert parse_lexvec(format_lexvec(v), QUAD2) == v
