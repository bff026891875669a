"""Machine-checked certificates of wild tilde behavior.

For a valuation built from weights chosen against a decreasing bound f
(or an increasing bound g), the certificate verifies, for every integer
n in a range, the exact inequality chain that forces the tilde function
below f(n) (or above g(n)) at a witness lambda below n.  The (a, c)
parameters describe an equivalent valuation with scaled generator
values; the second coordinate of x (and u) is forced to zero by the
recursion identities, which the certificate records in its header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .errors import UsageError, VerificationError
from .exact import Dyadic, QuadReal, format_scalar
from .genseq import SeqFamily, ValuationDef, choose_sigma, choose_tau, eta
from .gensemi import DEFAULT_STATE_CAP, GenSemigroup

KINDS = ("decreasing", "increasing", "both")
TILDE_CROSS_CHECK_MAX_INDEX = 4


@dataclass(frozen=True)
class WildParams:
    """Parameters (a, c) of an equivalent valuation; a2 is used only by
    the five-variable kind, where the u-chain witness scale is a2*sqrt2."""

    a: object = 1
    c: int = 1
    a2: Optional[object] = None

    def __post_init__(self):
        a = _as_dyadic(self.a)
        if a.sign() <= 0:
            raise UsageError("parameter a must be positive")
        if self.c < 1:
            raise UsageError("parameter c must be a positive integer")
        if self.a2 is not None and _as_dyadic(self.a2).sign() <= 0:
            raise UsageError("parameter a2 must be positive")

    def a_value(self) -> Dyadic:
        return _as_dyadic(self.a)

    def a2_value(self) -> Dyadic:
        return _as_dyadic(self.a2 if self.a2 is not None else self.a)


def _as_dyadic(x) -> Dyadic:
    d = Dyadic._coerce(x)
    if d is NotImplemented:
        raise UsageError(f"{x!r} is not a dyadic scalar")
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
    kind: str
    valuation: dict
    params: dict
    header: str
    rows: List[CertRow] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return all(r.ok for r in self.rows)

    def first_bad(self) -> Optional[CertRow]:
        for r in self.rows:
            if not r.ok:
                return r
        return None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "valuation": self.valuation,
            "params": self.params,
            "header": self.header,
            "rows": [
                {
                    "n": r.n,
                    "i": r.i,
                    "chain": r.chain,
                    "lambda": r.lam,
                    "witness": r.witness,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "ok": r.ok,
                    **({"tilde_second": r.tilde_second} if r.tilde_second else {}),
                }
                for r in self.rows
            ],
            "valid": self.valid,
        }


def required_index(e: int, N: int) -> int:
    """Largest i with e * 2^(i+2) <= N."""
    if N < e << 3:
        raise UsageError("certificate range ends below n0")
    return (N // e).bit_length() - 3


def block_index(e: int, n: int) -> int:
    """The i with e * 2^(i+2) <= n < e * 2^(i+3)."""
    return (n // e).bit_length() - 3


def make_wild_valuation(
    kind: str,
    f: Optional[Callable[[int], int]] = None,
    g: Optional[Callable[[int], int]] = None,
    N: int = 4096,
    params: WildParams = WildParams(),
) -> ValuationDef:
    """Choose weights against f/g out to the index the range N needs,
    and build the matching valuation form."""
    if kind not in KINDS:
        raise UsageError(f"unknown wildness kind {kind!r}")
    e, _ = _scales(kind, params)
    i_max = max(1, required_index(e, N))
    if kind == "decreasing":
        if f is None:
            raise UsageError("decreasing kind needs the bound f")
        return ValuationDef("P3", p=SeqFamily("P", choose_sigma(f, i_max)))
    if kind == "increasing":
        if g is None:
            raise UsageError("increasing kind needs the bound g")
        return ValuationDef("Q3", q=SeqFamily("Q", choose_tau(g, i_max)))
    if f is None or g is None:
        raise UsageError("the five-variable kind needs both bounds f and g")
    return ValuationDef(
        "C5",
        p=SeqFamily("P", choose_sigma(f, i_max)),
        q=SeqFamily("Q", choose_tau(g, i_max)),
    )


def _scales(kind: str, params: WildParams):
    """(e, n0): block scale and the first certified n."""
    a1 = params.a_value()
    if kind == "decreasing" or kind == "increasing":
        e = a1.ceil()
        return e, e << (e + 2)
    lam2_scale = QuadReal(0, params.a2_value())
    e = max(a1.ceil(), lam2_scale.ceil())
    return e, e << (e + 2)


def _scaled_semigroup(vdef: ValuationDef, params: WildParams, up_to: int) -> GenSemigroup:
    """Generators of the equivalent valuation omega: omega(z) = (0, c),
    omega(root) = (a, 0), and the scaled members of every family up to
    index up_to."""
    gens = [vdef.group.vec(0, params.c)]
    for fam in vdef.families():
        scale = _chain_scale(vdef, fam, params)
        for i in range(0, min(up_to, fam.max_index) + 1):
            first = scale * eta(i)
            second = params.c * fam.second(i)
            gens.append(vdef.group.vec(first, second))
    return GenSemigroup(vdef.group, gens)


def _chain_scale(vdef: ValuationDef, fam: SeqFamily, params: WildParams):
    """a scales the rational part of the first coordinate, a2 the sqrt2 part."""
    part = vdef.families().index(fam)
    return vdef.embed(fam, (params.a_value(), params.a2_value())[part])


def wild_certificate(
    kind: str,
    vdef: ValuationDef,
    params: WildParams,
    f: Optional[Callable[[int], int]] = None,
    g: Optional[Callable[[int], int]] = None,
    N: int = 4096,
    tilde_cap: int = DEFAULT_STATE_CAP,
) -> Certificate:
    """Verify the wildness inequality chain for every n in [n0, N].

    For each n the certified block index i satisfies
    e*2^(i+2) <= n < e*2^(i+3); the witness value lambda = scale * eta_i
    is checked to lie below n, and the scaled member second coordinate
    is checked against the bound at n.  Where the knapsack is small the
    tilde value of lambda over the scaled generators is computed and
    checked against the bound directly.
    """
    if kind not in KINDS:
        raise UsageError(f"unknown wildness kind {kind!r}")
    if kind == "decreasing" and f is None:
        raise UsageError("decreasing kind needs the bound f")
    if kind == "increasing" and g is None:
        raise UsageError("increasing kind needs the bound g")
    if kind == "both" and (f is None or g is None):
        raise UsageError("the five-variable kind needs both bounds")
    e, n0 = _scales(kind, params)
    if N < n0:
        raise UsageError(f"certificate range [{n0}, {N}] is empty")
    i_hi = block_index(e, N)
    chains = []
    if kind in ("decreasing", "both"):
        chains.append(("P", vdef.p, f, "lt"))
    if kind in ("increasing", "both"):
        chains.append(("Q", vdef.q, g, "gt"))
    for _, fam, _, _ in chains:
        if fam is None:
            raise UsageError(f"valuation form {vdef.form} lacks a needed family")
        fam.weight(i_hi)  # fail early, naming the missing index
    chains = [
        (name, fam, bound_fn, sense, _chain_scale(vdef, fam, params))
        for name, fam, bound_fn, sense in chains
    ]
    semigroup = _scaled_semigroup(vdef, params, TILDE_CROSS_CHECK_MAX_INDEX)
    cert = Certificate(
        kind=kind,
        valuation=vdef.descriptor(),
        params={
            "a": format_scalar(params.a_value()),
            "c": params.c,
            **({"a2": format_scalar(params.a2_value())} if kind == "both" else {}),
        },
        header=(
            "second coordinates of the root values are forced to zero by the "
            "recursion identities; this certificate verifies the stated (a, c) "
            "parameterization directly"
        ),
    )
    c = params.c
    tilde_memo: Dict[Tuple[str, int], Optional[object]] = {}
    for n in range(n0, N + 1):
        i = block_index(e, n)
        for chain, fam, bound_fn, sense, scale in chains:
            lam = scale * eta(i)
            lam_below_n = lam < n
            member_second = c * fam.second(i)
            bound = bound_fn(n)
            if sense == "lt":
                ok = lam_below_n and member_second < bound
            else:
                ok = lam_below_n and member_second > bound
            tilde_second = None
            if ok and i <= TILDE_CROSS_CHECK_MAX_INDEX:
                key = (chain, i)
                if key not in tilde_memo:
                    entry = semigroup.tilde(lam, cap=tilde_cap)
                    tilde_memo[key] = None if entry is None else entry.tilde.coords[1]
                t2 = tilde_memo[key]
                if t2 is None:
                    ok = False
                else:
                    tilde_second = format_scalar(t2)
                    if sense == "lt":
                        ok = t2 <= member_second and t2 < bound
                    else:
                        ok = t2 > bound
            cert.rows.append(
                CertRow(
                    n=n,
                    i=i,
                    chain=chain,
                    lam=format_scalar(lam),
                    witness=fam.name(i),
                    lhs=format_scalar(member_second),
                    rhs=str(bound),
                    ok=ok,
                    tilde_second=tilde_second,
                )
            )
    return cert


def parse_bound(descr: str) -> Callable[[int], int]:
    """Bound functions from a short descriptor.

    Accepted: ``neg_linear``, ``linear``, ``neg_pow(k)``, ``pow(k)``
    (also spelled ``neg_pow:k`` / ``pow:k``), and ``table:FILE`` where
    FILE holds whitespace-separated ``n value`` pairs, one per line.
    """
    descr = descr.strip()
    if descr == "neg_linear":
        return lambda n: -n
    if descr == "linear":
        return lambda n: n
    for name, sign in (("neg_pow", -1), ("pow", 1)):
        for fmt in (f"{name}(", f"{name}:"):
            if descr.startswith(fmt):
                arg = descr[len(fmt):].rstrip(")")
                try:
                    k = int(arg)
                except ValueError:
                    raise UsageError(f"bad exponent in bound descriptor {descr!r}")
                if k < 1:
                    raise UsageError("bound exponent must be positive")
                return lambda n, k=k, sign=sign: sign * n**k
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


def require_valid(cert: Certificate) -> None:
    bad = cert.first_bad()
    if bad is not None:
        raise VerificationError(
            f"certificate invalid at n={bad.n} ({bad.chain}-chain, index {bad.i})"
        )
