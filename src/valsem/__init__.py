"""valsem: exact arithmetic for rank-2 valuation semigroups.

Builds rank-2 valuations from recursive generating sequences, computes
canonical expansions and values with no floating point, enumerates
finitely generated value sub-semigroups (tilde function, pseudo-boxes),
counts a staircase semigroup against polynomial growth bounds, and
emits machine-checked certificates of wild tilde behavior.
"""

from .errors import CapExceeded, ParseError, UsageError, ValsemError, VerificationError
from .exact import Dyadic, LexVec, QuadReal, format_lexvec, format_scalar, parse_scalar
from .genseq import (
    SeqFamily,
    ValuationDef,
    check_key_identity,
    eta,
    expand,
    reconstruct,
    term_value,
    valuate,
)
from .gensemi import Box, GenSemigroup, box_bound_check, box_semigroup
from .poly import LaurentZ, MPoly, div_in_var, format_poly, parse_poly
from .semigroups import contradiction_table, stair_count, stair_members, t_box_count, theorem1_bound
from .wild import WildParams, make_wild_valuation, parse_bound, wild_certificate

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CapExceeded",
    "Dyadic",
    "GenSemigroup",
    "LaurentZ",
    "LexVec",
    "MPoly",
    "ParseError",
    "QuadReal",
    "SeqFamily",
    "UsageError",
    "ValsemError",
    "ValuationDef",
    "VerificationError",
    "WildParams",
    "box_bound_check",
    "box_semigroup",
    "check_key_identity",
    "contradiction_table",
    "div_in_var",
    "eta",
    "expand",
    "format_lexvec",
    "format_poly",
    "format_scalar",
    "make_wild_valuation",
    "parse_bound",
    "parse_poly",
    "parse_scalar",
    "reconstruct",
    "stair_count",
    "stair_members",
    "t_box_count",
    "term_value",
    "theorem1_bound",
    "valuate",
    "wild_certificate",
]
