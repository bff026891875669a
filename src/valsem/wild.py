"""Machine-checked certificates of wild tilde behavior.

For a valuation built from weights chosen against a decreasing bound f
(or an increasing bound g), the certificate verifies, for every integer
n in a range, the exact inequality chain that forces the tilde function
below f(n) (or above g(n)) at a witness lambda below n.

The kind table ``FORMS`` names, for each kind, the family kinds of the
valuation it is certified on; the valuation's families are its chains,
a P chain held below f and a Q chain above g.  The parameters (a, a2, c)
describe the scaling map omega onto an equivalent valuation,

    omega(first, second) = (a*part_0 + a2*part_1*sqrt2, c*second),

where a one-part first coordinate (P3, Q3) is scaled by a.  A row's
lambda and left-hand side are the two coordinates of omega(nu(M_i)), and
the tilde cross-check runs over the image under omega of the
valuation's generators.  The second coordinate of x (and u) is forced
to zero by the recursion identities, which the certificate records in
its header.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .errors import UsageError
from .exact import SQRT2, Dyadic, LexVec, QuadReal, format_scalar
from .genseq import SeqFamily, ValuationDef, choose_weights
from .gensemi import DEFAULT_STATE_CAP, GenSemigroup

# kind -> its family kinds in family order
FORMS = {"decreasing": "P", "increasing": "Q", "both": "PQ"}
TILDE_CROSS_CHECK_MAX_INDEX = 4


@dataclass(frozen=True)
class WildParams:
    """Parameters (a, a2, c) of the scaling map omega; a2 scales the sqrt2
    part of a five-variable first coordinate and defaults to a.  Both
    scales are stored as Dyadic."""

    a: object = 1
    c: int = 1
    a2: Optional[object] = None

    def __post_init__(self):
        a = _as_dyadic(self.a)
        if a.sign() <= 0:
            raise UsageError("parameter a must be positive")
        if not isinstance(self.c, int) or self.c < 1:
            raise UsageError("parameter c must be a positive integer")
        a2 = a if self.a2 is None else _as_dyadic(self.a2)
        if a2.sign() <= 0:
            raise UsageError("parameter a2 must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a2", a2)

    def omega_first(self, x):
        """The first coordinate of omega: a*part_0 + a2*part_1*sqrt2."""
        if isinstance(x, QuadReal):
            return QuadReal(self.a * x.rat, self.a2 * x.surd)
        return self.a * x

    def omega(self, v: LexVec) -> LexVec:
        return LexVec(self.omega_first(v.first), self.c * v.second)


def _as_dyadic(x) -> Dyadic:
    d = Dyadic._coerce(x)
    if d is NotImplemented:
        raise UsageError(f"{format_scalar(x)} is not a dyadic scalar")
    return d


@dataclass
class CertRow:
    n: int
    i: int
    chain: str  # "P" or "Q"
    lam: str
    witness: str
    lhs: str
    rhs: str
    ok: bool
    tilde_second: Optional[str] = None


@dataclass
class Certificate:
    """first_bad is the first row whose check fails, set once the rows
    are complete; None when every row holds."""

    kind: str
    valuation: dict
    params: dict
    header: str
    rows: List[CertRow] = field(default_factory=list)
    first_bad: Optional[CertRow] = None

    @property
    def valid(self) -> bool:
        return self.first_bad is None


def block_index(e: int, n: int) -> int:
    """The i with e * 2^(i+2) <= n < e * 2^(i+3)."""
    return (n // e).bit_length() - 3


def _chains(kind: str, f, g):
    """Per family of the kind, (family kind, bound, sense): a P chain is
    held below f, a Q chain above g."""
    if kind not in FORMS:
        raise UsageError(f"unknown wildness kind {kind!r}")
    chains = []
    for fk in FORMS[kind]:
        name, bound, sense = ("f", f, operator.lt) if fk == "P" else ("g", g, operator.gt)
        if bound is None:
            raise UsageError(f"the {kind} kind needs the bound {name}")
        chains.append((fk, bound, sense))
    return chains


def _block_scale(chains, params: WildParams, N: int) -> int:
    """The ceiling e of the largest omega-scaled root first coordinate (1
    for the first family, sqrt2 for a second), once the certificate range
    [n0, N], n0 = e * 2^(e+2), is checked to be nonempty."""
    e = max(params.omega_first(unit).ceil() for unit in (1, SQRT2)[: len(chains)])
    n0 = e << (e + 2)
    if N < n0:
        raise UsageError(f"certificate range [{n0}, {N}] is empty")
    return e


def make_wild_valuation(
    kind: str,
    f: Optional[Callable[[int], int]] = None,
    g: Optional[Callable[[int], int]] = None,
    N: int = 4096,
    params: WildParams = WildParams(),
) -> ValuationDef:
    """Choose weights against f/g out to the block index of N, and build
    the valuation on the kind's families."""
    chains = _chains(kind, f, g)
    i_hi = block_index(_block_scale(chains, params, N), N)
    fams = {fk.lower(): SeqFamily(fk, choose_weights(fk, bound, i_hi)) for fk, bound, _ in chains}
    return ValuationDef(**fams)


def _scaled_semigroup(vdef: ValuationDef, params: WildParams) -> GenSemigroup:
    """The image under omega of z, the roots and the members up to the
    cross-check index."""
    gens = vdef.generators(up_to=TILDE_CROSS_CHECK_MAX_INDEX)
    return GenSemigroup(vdef.group, [params.omega(v) for _, v in gens])


def wild_certificate(
    vdef: ValuationDef,
    params: WildParams,
    f: Optional[Callable[[int], int]] = None,
    g: Optional[Callable[[int], int]] = None,
    N: int = 4096,
    tilde_cap: int = DEFAULT_STATE_CAP,
) -> Certificate:
    """Verify the wildness inequality chain for every n in [n0, N].

    The chains are the valuation's families, and the certificate's kind
    is the one whose families those are.  Rows come block by block,
    e*2^(i+2) <= n < e*2^(i+3), in n order and P before Q.  Per block and
    chain, (lambda, lhs) = omega(nu(M_i)) is computed once; each row
    checks lambda < n and lhs against the bound at n, exactly.  Where the
    knapsack is small, the tilde value of lambda over the scaled
    generators is computed once per block, at the first row that passes,
    and checked against the bound directly.
    """
    fams = vdef.families()
    kind = {fks: k for k, fks in FORMS.items()}["".join(fam.kind for fam in fams)]
    chains = [(fam, bound, sense) for fam, (_, bound, sense) in zip(fams, _chains(kind, f, g))]
    e = _block_scale(chains, params, N)
    i_hi = block_index(e, N)
    for fam in fams:
        fam.weight(i_hi)  # fail early, naming the missing index
    semigroup = _scaled_semigroup(vdef, params)
    cert = Certificate(
        kind=kind,
        valuation=vdef.descriptor(),
        params={
            "a": format_scalar(params.a),
            "c": params.c,
            **({"a2": format_scalar(params.a2)} if len(chains) > 1 else {}),
        },
        header=(
            "second coordinates of the root values are forced to zero by the "
            "recursion identities; this certificate verifies the stated (a, c) "
            "parameterization directly"
        ),
    )

    def block_rows(fam, bound_fn, sense, i, ns):
        # lazy, so the chains of a block interleave and each tilde search
        # runs at the row that first needs it
        lam, lhs = params.omega(vdef.gen_value(fam, i)).coords
        lam_text, lhs_text, witness = format_scalar(lam), format_scalar(lhs), fam.name(i)
        lam_floor = lam.floor()  # lam < n exactly when floor(lam) < n, for integer n
        t2 = t2_text = None
        searched = False
        for n in ns:
            bound = bound_fn(n)
            ok = lam_floor < n and sense(lhs, bound)
            tilde_second = None
            if ok and i <= TILDE_CROSS_CHECK_MAX_INDEX:
                if not searched:
                    entry = semigroup.tilde(lam, cap=tilde_cap)
                    if entry is not None:
                        t2 = entry.tilde.second
                        t2_text = format_scalar(t2)
                    searched = True
                tilde_second = t2_text
                # below f: tilde(lambda) <= lhs < f(n); above g: tilde(lambda) > g(n)
                ok = t2 is not None and sense(t2, bound) and (sense is operator.gt or t2 <= lhs)
            yield CertRow(n, i, fam.kind, lam_text, witness, lhs_text, str(bound), ok,
                          tilde_second)

    for i in range(e, i_hi + 1):
        ns = range(e << (i + 2), min(N + 1, e << (i + 3)))
        for rows in zip(*(block_rows(fam, bound, sense, i, ns) for fam, bound, sense in chains)):
            cert.rows.extend(rows)
    cert.first_bad = next((r for r in cert.rows if not r.ok), None)
    return cert


# neg_pow(k), pow(k), neg_pow:k, pow:k with k in ASCII digits
_POW_BOUND = re.compile(r"(neg_)?pow(?:\(([0-9]+)\)|:([0-9]+))")


def parse_bound(descr: str) -> Callable[[int], int]:
    """Bound functions from a short descriptor.

    Accepted: ``neg_linear``, ``linear``, ``neg_pow(k)``, ``pow(k)``
    (also spelled ``neg_pow:k`` / ``pow:k``), and ``table:FILE`` where
    FILE holds whitespace-separated ``n value`` pairs, one per line.
    """
    if descr == "neg_linear":
        return lambda n: -n
    if descr == "linear":
        return lambda n: n
    m = _POW_BOUND.fullmatch(descr)
    if m:
        sign, k = -1 if m[1] else 1, int(m[2] or m[3])
        if k < 1:
            raise UsageError("bound exponent must be positive")
        return lambda n: sign * n**k
    if descr.startswith("table:"):
        path = descr[len("table:"):]
        table: Dict[int, int] = {}
        try:
            with open(path) as fh:
                for line in fh:
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    n_str, v_str = line.split()
                    table[int(n_str)] = int(v_str)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read bound table {path!r}: {exc}")

        def from_table(n: int) -> int:
            if n not in table:
                raise UsageError(f"bound table has no entry for n={n}")
            return table[n]

        return from_table
    raise UsageError(f"unknown bound descriptor {descr!r}")
