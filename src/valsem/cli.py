"""Command-line front end.

Subcommands: valuate, expand, tilde, count, example3, wild, selftest.
Exit codes: 0 success/verified, 1 verification failed, 2 usage or parse
error, or output that cannot be written (an unwritable --out, or a
stdout closed early, as by `| head`), 3 resource cap exceeded.
Certificates and CSV tables are written one row at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import os
import random
import sys
from fractions import Fraction
from operator import attrgetter

from .errors import CapExceeded, ParseError, UsageError, VerificationError
from .exact import Dyadic, QuadReal, format_lexvec, format_scalar, parse_scalar
from .genseq import (
    ValuationDef,
    check_key_identity,
    eta,
    expand,
    valuate,
)
from .gensemi import DEFAULT_STATE_CAP, box_bound_check, box_semigroup
from .poly import MPoly, format_poly, parse_poly
from .semigroups import contradiction_table, stair_count, stair_members
from .wild import (
    FORMS,
    Certificate,
    CertRow,
    WildParams,
    make_wild_valuation,
    parse_bound,
    wild_certificate,
)

_SQRT2_FLOAT = 1.4142135623730951
# the string escaping json.dumps applies under its default ensure_ascii
_json_str = json.encoder.encode_basestring_ascii


def _approx(x) -> float:
    if isinstance(x, Dyadic):
        return x.num / (1 << x.k)
    if isinstance(x, QuadReal):
        return _approx(x.rat) + _approx(x.surd) * _SQRT2_FLOAT
    raise UsageError(f"cannot approximate {x!r}")


def _approx_vec(v) -> str:
    return "(" + ", ".join(f"{_approx(c):.6g}" for c in v.coords) + ")"


def _parse_weights(text: str, what: str):
    try:
        return [int(w) for w in text.split(",") if w.strip()]
    except ValueError:
        raise UsageError(f"bad {what} list {text!r}; expected comma-separated integers")


def _vdef_from_args(args, default_sigma=None) -> ValuationDef:
    sigma = _parse_weights(args.sigma, "sigma") if args.sigma else None
    tau = _parse_weights(args.tau, "tau") if args.tau else None
    if sigma is None and tau is None and default_sigma is not None:
        sigma = list(default_sigma)
    if sigma is not None and tau is not None:
        return ValuationDef.combined(sigma, tau)
    if sigma is not None:
        return ValuationDef.p3(sigma)
    if tau is not None:
        return ValuationDef.q3(tau)
    raise UsageError("a valuation needs --sigma and/or --tau weights")


def _format_term(vdef: ValuationDef, term) -> str:
    factors = []
    coeff = str(term.coeff)
    if "+" in coeff[1:] or "-" in coeff[1:]:
        coeff = f"({coeff})"
    if coeff != "1" or not any(term.alpha + term.beta):
        factors.append(coeff)
    for fam, exps in ((vdef.p, term.alpha), (vdef.q, term.beta)):
        for i, e in enumerate(exps):
            if not e:
                continue
            name = fam.name(i)
            factors.append(name if e == 1 else f"{name}^{e}")
    return " * ".join(factors)


@contextlib.contextmanager
def _output(args):
    """The stream a command writes to: stdout, or the --out file, which
    is opened only here, once the result is computed."""
    if not args.out:
        yield sys.stdout
        return
    try:
        with open(args.out, "w") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write output file: {exc}")


def _emit(args, text) -> None:
    """Write text, a str or an iterable of str pieces, then one "\n":
    the bytes print(text) gives, but the pieces are written in order and
    never joined."""
    with _output(args) as fh:
        fh.writelines((text,) if isinstance(text, str) else text)
        fh.write("\n")


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2))


def _certificate_json(cert: Certificate):
    """The text json.dumps(payload, indent=2) gives for the certificate's
    payload (kind, valuation, params, header, rows, valid), as pieces:
    the head, each row with the separator before it, then the tail.
    Each row is rendered on its own, so no dict per row is built and no
    piece is longer than one row."""
    head = json.dumps({"kind": cert.kind, "valuation": cert.valuation, "params": cert.params,
                       "header": cert.header}, indent=2)
    tail = ("\n  ]" if cert.rows else "]") + f',\n  "valid": {"true" if cert.valid else "false"}\n}}'
    # the rows and the verdict go where the head's closing "\n}" stood
    seps = itertools.chain(["\n"], itertools.repeat(",\n"))
    return itertools.chain([head[:-2] + ',\n  "rows": ['], map(_row_json, cert.rows, seps), [tail])


def _row_json(r: CertRow, sep: str) -> str:
    s = _json_str
    tail = f',\n      "tilde_second": {s(r.tilde_second)}' if r.tilde_second else ""
    return (
        f'{sep}    {{\n      "n": {int.__repr__(r.n)},\n      "i": {int.__repr__(r.i)},\n'
        f'      "chain": {s(r.chain)},\n      "lambda": {s(r.lam)},\n'
        f'      "witness": {s(r.witness)},\n      "lhs": {s(r.lhs)},\n'
        f'      "rhs": {s(r.rhs)},\n      "ok": {"true" if r.ok else "false"}{tail}\n    }}'
    )


def _emit_csv(args, header, rows) -> None:
    """header, then rows (any iterable of rows), as CSV with "\r\n" line
    ends: the csv writer renders and writes each row on its own."""
    with _output(args) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _emit_table(args, kind: str, parameters: dict, header, table, pretty: str) -> None:
    """A count table as the schemas/count_table.json document, as CSV or
    as the given pretty text."""
    if args.format == "json":
        _emit_json(args, {"kind": kind, "parameters": parameters,
                          "rows": [dict(zip(header, row)) for row in table]})
    elif args.format == "csv":
        _emit_csv(args, header, table)
    else:
        _emit(args, pretty)


def _load_poly(args) -> MPoly:
    if args.poly is not None:
        text = args.poly
    elif args.poly_file is not None:
        try:
            with open(args.poly_file) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read polynomial file: {exc}")
    else:
        raise UsageError("provide --poly TEXT or --poly-file FILE")
    return parse_poly(text)


def cmd_valuate(args) -> int:
    vdef = _vdef_from_args(args)
    f = _load_poly(args)
    res = valuate(vdef, f)
    if args.format == "json":
        _emit_json(
            args,
            {
                "valuation": vdef.descriptor(),
                "value": format_lexvec(res.value),
                "witness": _format_term(vdef, res.witness),
                "expansion": [_format_term(vdef, t) for t in res.expansion],
            },
        )
        return 0
    lines = [format_lexvec(res.value)]
    if args.approx:
        lines[0] += f"   [approx {_approx_vec(res.value)}]"
    lines.append(f"witness: {_format_term(vdef, res.witness)}")
    lines.append("expansion:")
    for t in res.expansion:
        lines.append(f"  {_format_term(vdef, t)}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_expand(args) -> int:
    vdef = _vdef_from_args(args)
    f = _load_poly(args)
    terms = expand(vdef, f)
    if args.format == "json":
        _emit_json(
            args,
            {
                "valuation": vdef.descriptor(),
                "polynomial": format_poly(f),
                "terms": [_format_term(vdef, t) for t in terms],
            },
        )
        return 0
    _emit(args, "\n".join(_format_term(vdef, t) for t in terms))
    return 0


def _named_semigroup(vdef: ValuationDef):
    """The generated sub-semigroup plus a value -> generator-name map."""
    names = {}
    for name, v in vdef.generators():
        names.setdefault(v, name)
    return box_semigroup(vdef), names


def _parse_lambda(text: str):
    try:
        return parse_scalar(text)
    except ParseError:
        pass
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad lambda {text!r}")


def cmd_tilde(args) -> int:
    vdef = _vdef_from_args(args, default_sigma=(2, 5))
    sg, names = _named_semigroup(vdef)
    lam = _parse_lambda(getattr(args, "lambda"))
    entry = sg.tilde(lam, cap=args.max_states)
    if entry is None:
        _emit(args, "not in projected semigroup")
        return 1
    parts = []
    for g, e in zip(sg.generators, entry.witness):
        if e:
            name = names.get(g, format_lexvec(g))
            parts.append(name if e == 1 else f"{name}^{e}")
    witness = " * ".join(parts) if parts else "1"
    if args.format == "json":
        _emit_json(
            args,
            {
                "lambda": format_scalar(lam),
                "tilde": format_lexvec(entry.tilde),
                "witness": witness,
            },
        )
        return 0
    line = f"{format_lexvec(entry.tilde)}, witness {witness}"
    if args.approx:
        line += f"   [approx {_approx_vec(entry.tilde)}]"
    _emit(args, line)
    return 0


def cmd_count(args) -> int:
    vdef = _vdef_from_args(args, default_sigma=(2, 5))
    report = box_bound_check(vdef, args.y1, args.y2, cap=args.max_states)
    bound = format_scalar(report.bound)
    _emit_table(
        args, "box_count", {"y1": args.y1, "y2": args.y2, **vdef.descriptor()},
        ["y1", "y2", "count", "bound", "ok"],
        [[report.y1, report.y2, report.count, bound, report.ok]],
        f"count {report.count}, bound {bound}, {'pass' if report.ok else 'FAIL'}",
    )
    return 0 if report.ok else 1


def _y2_grid(y2_max: int):
    out = [1]
    while out[-1] * 2 <= y2_max:
        out.append(out[-1] * 2)
    return out


def cmd_example3(args) -> int:
    for flag, value in (("--r", args.r), ("--y1", args.y1), ("--y2-max", args.y2_max),
                        ("--d", args.d)):
        if value < 1:
            raise UsageError(f"{flag} must be at least 1")
    rows = contradiction_table(args.r, args.y1, _y2_grid(args.y2_max), args.d)
    crossed = any(r.crossed for r in rows)
    header = ["y2", "lower_bound", "exact_count", "claimed_bound", "crossed"]
    table = [[r.y2, r.lower_bound, r.exact_count, r.claimed_bound, r.crossed] for r in rows]
    pretty = [header, *table, ["crossover found" if crossed else "no crossover in range"]]
    _emit_table(args, "example3", {"r": args.r, "y1": args.y1, "d": args.d}, header, table,
                "\n".join("  ".join(map(str, row)) for row in pretty))
    return 0 if crossed else 1


def cmd_wild(args) -> int:
    params = WildParams(
        a=_parse_lambda(args.a) if args.a else 1,
        c=args.c,
        a2=_parse_lambda(args.a2) if args.a2 else None,
    )
    f = parse_bound(args.f) if args.f else parse_bound("neg_linear")
    g = parse_bound(args.g) if args.g else parse_bound("linear")
    if args.sigma or args.tau:
        vdef = _vdef_from_args(args)
        fams = FORMS[args.kind]
        if "".join(fam.kind for fam in vdef.families()) != fams:
            flags = " and ".join({"P": "--sigma", "Q": "--tau"}[fk] for fk in fams)
            raise UsageError(f"the {args.kind} kind expects {flags} weights only")
    else:
        vdef = make_wild_valuation(args.kind, f=f, g=g, N=args.N, params=params)
    cert = wild_certificate(vdef, params, f=f, g=g, N=args.N, tilde_cap=args.max_states)
    if args.format == "csv":
        header = ["n", "i", "chain", "lambda", "witness", "lhs", "rhs", "ok"]
        _emit_csv(
            args,
            header,
            map(attrgetter("n", "i", "chain", "lam", "witness", "lhs", "rhs", "ok"), cert.rows),
        )
    elif args.format == "pretty":
        bad = cert.first_bad
        _emit(args, f"kind {cert.kind}, rows {len(cert.rows)}, "
              + ("all ok" if bad is None else f"FIRST BAD n={bad.n} ({bad.chain}-chain)"))
    else:
        _emit(args, _certificate_json(cert))
    return 0 if cert.valid else 1


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    failures = []

    def check(name, ok):
        print(f"{name}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    vdef = ValuationDef.p3([2, 5])
    res = valuate(vdef, parse_poly("y^2"))
    check("valuate y^2 = (5, -2)", res.value == vdef.group.vec(5, -2))
    # eta is filled from its closed form; the recursion is the oracle
    check("eta closed form", eta(0) == 1
          and all(eta(i) == 2 * eta(i - 1) + Dyadic(1, i) for i in range(1, 20)))
    # at i = 1, 2 the identity is checked on the cached values and on the
    # expansion of z^a_i * P_i^2; the strictness check reads the value of
    # P_(i+1), so the weight list runs one index further
    vdef_id = ValuationDef.p3([2, 5, 3])
    check("key identities", all(check_key_identity(vdef_id, i) for i in (1, 2)))
    check(
        "stair counts vs enumeration",
        all(
            stair_count(1, n) == len(stair_members(1, n, n + 1))
            for n in rng.sample(range(1, 33), 8)
        ),
    )
    sg, _ = _named_semigroup(vdef)
    entry = sg.tilde(Dyadic(21, 2))
    check("tilde(21/4) = (21/4, -3)", entry is not None
          and entry.tilde == vdef.group.vec(Dyadic(21, 2), -3))
    report = box_bound_check(vdef, 4, 4)
    check("box count within bound at (4, 4)", report.ok)
    cert = wild_certificate(
        make_wild_valuation("decreasing", f=lambda n: -n, N=64),
        WildParams(),
        f=lambda n: -n,
        N=64,
    )
    check("wild certificate n<=64", cert.valid)
    return 0 if not failures else 1


_FORMATS = ("json", "csv", "pretty")
_NO_CSV = ("json", "pretty")


def _add_common(sp, formats, with_poly=False, with_weights=True):
    if with_weights:
        sp.add_argument("--sigma", help="comma-separated P-family weights")
        sp.add_argument("--tau", help="comma-separated Q-family weights")
    if with_poly:
        sp.add_argument("--poly", help="polynomial text")
        sp.add_argument("--poly-file", help="file containing polynomial text")
    sp.add_argument("--format", choices=formats, default="pretty")
    sp.add_argument("--out", help="write output to FILE instead of stdout")


def _add_cap(sp):
    sp.add_argument("--max-states", type=int, default=DEFAULT_STATE_CAP,
                    help="enumeration state cap (default %(default)s)")


def _add_approx(sp):
    sp.add_argument("--approx", action="store_true",
                    help="append decimal renderings, clearly marked approximate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valsem",
        description="exact rank-2 valuation semigroup computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("valuate", help="value and expansion of a polynomial")
    _add_common(sp, _NO_CSV, with_poly=True)
    _add_approx(sp)
    sp.set_defaults(func=cmd_valuate)

    sp = sub.add_parser("expand", help="canonical expansion of a polynomial")
    _add_common(sp, _NO_CSV, with_poly=True)
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("tilde", help="tilde value of a first coordinate")
    _add_common(sp, _NO_CSV)
    _add_cap(sp)
    _add_approx(sp)
    sp.add_argument("--lambda", required=True, help="first-coordinate value")
    sp.set_defaults(func=cmd_tilde)

    sp = sub.add_parser("count", help="pseudo-box count against the growth bound")
    _add_common(sp, _FORMATS)
    _add_cap(sp)
    sp.add_argument("--y1", type=int, required=True)
    sp.add_argument("--y2", type=int, required=True)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("example3", help="staircase semigroup contradiction table")
    _add_common(sp, _FORMATS, with_weights=False)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--y1", type=int, default=64)
    sp.add_argument("--y2-max", type=int, default=4096)
    sp.add_argument("--d", type=int, default=10**6)
    sp.set_defaults(func=cmd_example3)

    sp = sub.add_parser("wild", help="wild tilde certificate")
    _add_common(sp, _FORMATS)
    _add_cap(sp)
    sp.add_argument("--kind", choices=tuple(FORMS), required=True)
    sp.add_argument("--f", help="bound descriptor for the decreasing chain")
    sp.add_argument("--g", help="bound descriptor for the increasing chain")
    sp.add_argument("--N", type=int, default=4096)
    sp.add_argument("--a", help="witness scale a (dyadic)")
    sp.add_argument("--c", type=int, default=1, help="second-coordinate scale c")
    sp.add_argument("--a2", help="sqrt2-chain scale for the both kind")
    sp.set_defaults(func=cmd_wild)

    sp = sub.add_parser("selftest", help="run a small built-in check battery")
    sp.add_argument("--seed", type=int, default=0, help="seed for the sampled checks")
    sp.set_defaults(func=cmd_selftest)

    return parser


def _silence_stdout() -> None:
    """Point stdout's file descriptor at /dev/null, so that the flush at
    exit does not fail again on the closed pipe.  Only a stdout with a
    real descriptor is touched: a StringIO in its place has none."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # --max-states is registered only where a search takes a cap
        if getattr(args, "max_states", 1) < 1:
            raise UsageError("--max-states must be positive")
        code = args.func(args)
        # a closed pipe shows here rather than in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        _silence_stdout()
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error at position {exc.pos}: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
