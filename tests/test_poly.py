import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valsem.errors import ParseError, UsageError
from valsem.poly import MONE, LaurentZ, MPoly, div_in_var, format_poly, parse_poly

from conftest import random_poly


def laurent_strategy():
    # constants in z: the ring laws of the z-coefficients, run on MPoly
    return st.dictionaries(
        st.integers(-4, 4), st.fractions(max_denominator=8), max_size=4
    ).map(lambda d: MPoly({MONE: LaurentZ(d)}))


class TestLaurentZ:
    @given(laurent_strategy(), laurent_strategy(), laurent_strategy())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        assert a * MPoly.one() == a

    def test_ord_z_additive(self):
        rng = random.Random(7)
        for _ in range(200):
            a = MPoly({MONE: LaurentZ({rng.randint(-5, 5): rng.randint(1, 9) for _ in range(3)})})
            b = MPoly({MONE: LaurentZ({rng.randint(-5, 5): rng.randint(1, 9) for _ in range(3)})})
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).as_laurent().ord_z() == a.as_laurent().ord_z() + b.as_laurent().ord_z()

    def test_ord_of_zero_rejected(self):
        with pytest.raises(UsageError):
            MPoly.zero().as_laurent().ord_z()

    def test_unit_parts(self):
        assert LaurentZ.term(Fraction(3, 2), -4).unit_parts() == (Fraction(3, 2), -4)
        assert LaurentZ({0: 1, 1: 1}).unit_parts() is None
        assert parse_poly("3/2*z^-4").as_laurent().unit_parts() == (Fraction(3, 2), -4)
        assert parse_poly("1 + z").as_laurent().unit_parts() is None


class TestMPoly:
    def test_ring_laws_random(self):
        rng = random.Random(11)
        for _ in range(60):
            a = random_poly(rng, ("x", "y", "u"), max_terms=4, max_deg=3)
            b = random_poly(rng, ("x", "y", "u"), max_terms=4, max_deg=3)
            c = random_poly(rng, ("x", "y", "u"), max_terms=4, max_deg=3)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)
            assert a + MPoly.zero() == a
            assert a * MPoly.one() == a

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(3)
        p = random_poly(rng, ("x", "y"), max_terms=3, max_deg=2)
        acc = MPoly.one()
        for n in range(6):
            assert p**n == acc
            acc = acc * p

    def test_deg_and_uses_only(self):
        p = parse_poly("x^2*y + z^-1*u^3")
        assert p.deg(0) == 2 and p.deg(1) == 1 and p.deg(2) == 3 and p.deg(3) == 0
        assert MPoly.zero().deg(0) == -1
        assert p.uses_only((0, 1, 2))
        assert not p.uses_only((0, 1))


def _well_formed(p):
    # a key is (x, y, u, v, z) with only z negative; a stored zero would
    # keep the remainder loop of div_in_var from ending
    return all(
        len(m) == 5 and min(m[:4]) >= 0 and type(c) in (int, Fraction) and c != 0
        for m, c in p.terms.items()
    )


class TestRingInvariant:
    @given(st.integers(0, 2**32), st.sampled_from(range(4)), st.integers(0, 3),
           st.fractions(max_denominator=6), st.integers(-3, 3))
    @settings(max_examples=80, deadline=None)
    def test_keys_and_coefficients(self, seed, var, n, coeff, zshift):
        rng = random.Random(seed)
        names = ("x", "y", "u", "v")
        a = random_poly(rng, names, max_terms=4, max_deg=3)
        b = random_poly(rng, names, max_terms=4, max_deg=3)
        # a divisor whose leading coefficient in var is a unit c*z^k
        lead = LaurentZ.term(rng.choice([1, -1, 2, Fraction(-3, 2)]), rng.randint(-2, 2))
        g = MPoly({MONE: lead}) * MPoly.var(names[var]) ** rng.randint(1, 3) + random_poly(
            rng, names[:var] + names[var + 1:], max_terms=3, max_deg=2
        )
        q, r = div_in_var(a * b, g, var)
        assert q * g + r == a * b
        for p in (a + b, a - b, a - a, a * b, a**n, a.scaled(coeff, zshift),
                  a.coeff_in_var(var, n), a.mul_var_pow(var, n), g, q, r):
            assert _well_formed(p), p.terms


class TestDivision:
    def test_examples(self):
        # y^2 divided by z^2*y^2 - x^5
        f = parse_poly("y^2")
        g = parse_poly("z^2*y^2 - x^5")
        q, r = div_in_var(f, g, 1)
        assert q == parse_poly("z^-2")
        assert r == parse_poly("z^-2*x^5")
        assert q * g + r == f

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(1000):
            f = random_poly(rng, ("x", "y"), max_terms=5, max_deg=6)
            # divisor with unit leading coefficient in y
            lead_k = rng.randint(-2, 2)
            g = MPoly({MONE: LaurentZ.term(rng.choice([1, -1, 2]), lead_k)}) * (
                MPoly.var("y") ** rng.randint(1, 3)
            ) + random_poly(rng, ("x",), max_terms=2, max_deg=3)
            q, r = div_in_var(f, g, 1)
            assert q * g + r == f
            assert r.deg(1) < g.deg(1) or r.is_zero()

    def test_nonunit_leading_coeff_rejected(self):
        f = parse_poly("y^3")
        g = parse_poly("x*y + 1")
        with pytest.raises(UsageError):
            div_in_var(f, g, 1)
        with pytest.raises(UsageError):
            div_in_var(f, parse_poly("(z + 1)*y"), 1)

    def test_division_by_zero_rejected(self):
        with pytest.raises(UsageError):
            div_in_var(parse_poly("y"), MPoly.zero(), 1)


class TestParser:
    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(300):
            p = random_poly(rng, ("x", "y", "u", "v"), max_terms=5, max_deg=4)
            assert parse_poly(format_poly(p)) == p

    def test_worked_examples(self):
        p = parse_poly("z^2*y^2 - x^5")
        assert format_poly(p) == "-x^5 + z^2*y^2"
        assert parse_poly("3/2*x") == parse_poly("x").scaled(Fraction(3, 2))
        assert parse_poly("-(x - y)") == parse_poly("y - x")
        assert parse_poly("(x + y)^2") == parse_poly("x^2 + 2*x*y + y^2")

    def test_negative_exponent_only_on_z(self):
        assert parse_poly("z^-3") == MPoly({MONE: LaurentZ.term(1, -3)})
        with pytest.raises(ParseError):
            parse_poly("x^-1")

    def test_implicit_multiplication_is_error(self):
        with pytest.raises(ParseError):
            parse_poly("2x")
        with pytest.raises(ParseError):
            parse_poly("x y")

    def test_error_positions(self):
        with pytest.raises(ParseError) as ei:
            parse_poly("x + $")
        assert ei.value.pos == 4

    def test_format_zero_and_laurent_coeffs(self):
        assert format_poly(MPoly.zero()) == "0"
        p = parse_poly("(z + 1)*x")
        assert format_poly(p) == "(z + 1)*x"
        assert parse_poly(format_poly(p)) == p
