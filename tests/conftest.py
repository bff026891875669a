import random
import time
from math import comb

from valsem.poly import MONE, LaurentZ, MPoly


def pytest_configure(config):
    config._suite_start = time.perf_counter()


def pytest_collection_modifyitems(config, items):
    # the acceptance module runs last so its whole-suite timing check
    # covers everything else
    items.sort(key=lambda item: item.fspath.basename == "test_acceptance.py")

VAR_NAMES = ("x", "y", "u", "v")


def random_poly(
    rng: random.Random,
    variables=("x", "y"),
    max_terms=6,
    max_deg=5,
    z_range=(-3, 3),
    max_y_deg=None,
) -> MPoly:
    """A random nonzero polynomial in the given variables with Laurent-z
    rational coefficients."""
    while True:
        p = MPoly.zero()
        for _ in range(rng.randint(1, max_terms)):
            coeff = 0
            while coeff == 0:
                coeff = rng.randint(-9, 9)
            mono = MPoly({MONE: LaurentZ.term(coeff, rng.randint(*z_range))})
            for var in variables:
                cap = max_deg
                if max_y_deg is not None and var in ("y", "v"):
                    cap = max_y_deg
                mono = mono * (MPoly.var(var) ** rng.randint(0, cap))
            p = p + mono
        if not p.is_zero():
            return p


def hs_length(d: int, y: int) -> int:
    """Colength of the y-th power of the maximal ideal in a d-dimensional
    regular local ring: binomial(y + d - 1, d)."""
    return comb(y + d - 1, d)
