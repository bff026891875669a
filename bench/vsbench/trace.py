"""Traced run: wrappers around valsem's public functions, spans and counters.

The wrappers live here, in the benchmark, not in the library.  Each
function is replaced at every name a caller looks it up by: every module
of the ``valsem`` package that binds the same function object, or every
class attribute that aliases the same method.  Wrappers record only while
an op is running (``Tracer.op >= 0``), so answer checks and set-up stay
out of the totals.

Spans are kept in memory as parallel arrays (name, start, end, parent,
op) and written out when the run ends.  Counted layers get a counter
instead of a span because they run millions of times per run.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

SPAN = "span"
COUNT = "count"

# (metric prefix, kind, defining module, attributes).  An attribute
# "Cls.meth" wraps a method on the class; a plain name wraps a function
# at every module binding of it.  Layers the library no longer has are
# skipped and read 0.
LAYERS = [
    ("exact.dyadic_arith", COUNT, "valsem.exact",
     ["Dyadic.__add__", "Dyadic.__sub__", "Dyadic.__rsub__", "Dyadic.__mul__", "Dyadic._cmp"]),
    ("exact.quad_arith", COUNT, "valsem.exact",
     ["QuadReal.__add__", "QuadReal.__sub__", "QuadReal.__rsub__", "QuadReal.__mul__",
      "QuadReal._cmp", "QuadReal.sign"]),
    ("exact.format_scalar", SPAN, "valsem.exact", ["format_scalar"]),
    ("exact.parse_scalar", SPAN, "valsem.exact", ["parse_scalar"]),
    ("poly.parse_poly", SPAN, "valsem.poly", ["parse_poly"]),
    ("poly.div_in_var", SPAN, "valsem.poly", ["div_in_var"]),
    ("poly.mpoly_mul", SPAN, "valsem.poly", ["MPoly.__mul__"]),
    ("poly.laurent_mul", COUNT, "valsem.poly", ["LaurentZ.__mul__"]),
    ("genseq.valuate", SPAN, "valsem.genseq", ["valuate"]),
    ("genseq.expand", SPAN, "valsem.genseq", ["expand"]),
    ("genseq.term_value", COUNT, "valsem.genseq", ["term_value"]),
    ("genseq.family_poly", SPAN, "valsem.genseq", ["SeqFamily.poly"]),
    ("gensemi.tilde", SPAN, "valsem.gensemi", ["GenSemigroup.tilde"]),
    ("gensemi.count_box", SPAN, "valsem.gensemi", ["GenSemigroup.count_box"]),
    ("semigroups.contradiction_table", SPAN, "valsem.semigroups", ["contradiction_table"]),
    ("semigroups.t_box_count", SPAN, "valsem.semigroups", ["t_box_count"]),
    ("semigroups.powersum", COUNT, "valsem.semigroups", ["powersum"]),
    ("wild.wild_certificate", SPAN, "valsem.wild", ["wild_certificate"]),
    ("cli.main", SPAN, "valsem.cli", ["main"]),
]

# Counters fed from a wrapped call's result or exception.
_RESULT_COUNTERS = {
    "genseq.expand": lambda res: ("genseq.expand.terms", len(res)),
    "gensemi.tilde": lambda res: ("gensemi.tilde.found", res is not None),
    "wild.wild_certificate": lambda res: ("wild.rows", len(res.rows)),
}
_CAP_COUNTED = ("gensemi.tilde", "gensemi.count_box")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = [
    ("exact.dyadic_arith.calls", "count"),
    ("exact.quad_arith.calls", "count"),
    ("exact.format_scalar.busy_s", "s"),
    ("exact.parse_scalar.busy_s", "s"),
    ("poly.parse_poly.busy_s", "s"),
    ("poly.div_in_var.calls", "count"),
    ("poly.div_in_var.busy_s", "s"),
    ("poly.mpoly_mul.calls", "count"),
    ("poly.mpoly_mul.busy_s", "s"),
    ("poly.laurent_mul.calls", "count"),
    ("genseq.valuate.busy_s", "s"),
    ("genseq.expand.calls", "count"),
    ("genseq.expand.self_s", "s"),
    ("genseq.expand.terms", "count"),
    ("genseq.term_value.calls", "count"),
    ("genseq.family_poly.busy_s", "s"),
    ("gensemi.tilde.calls", "count"),
    ("gensemi.tilde.busy_s", "s"),
    ("gensemi.tilde.found_ratio", "ratio"),
    ("gensemi.count_box.calls", "count"),
    ("gensemi.count_box.busy_s", "s"),
    ("gensemi.cap_exceeded", "count"),
    ("semigroups.contradiction_table.busy_s", "s"),
    ("semigroups.t_box_count.busy_s", "s"),
    ("semigroups.powersum.calls", "count"),
    ("wild.wild_certificate.calls", "count"),
    ("wild.wild_certificate.self_s", "s"),
    ("wild.rows", "count"),
    ("wild.tilde_crosscheck.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.ops", "count"),
]


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.op = -1
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self.counts: dict = {}
        self._undo: list = []

    # -- recording ------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, name, fn, cap_error):
        tracer = self
        nid = self._name_id(name)
        on_result = _RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if cap_error is not None and isinstance(exc, cap_error):
                    tracer.count("gensemi.cap_exceeded")
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
            if on_result is not None:
                tracer.count(*on_result(result))
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op >= 0:
                tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function at each name it is looked up by."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "valsem" or n.startswith("valsem."))]
        cap_error = getattr(sys.modules.get("valsem.errors"), "CapExceeded", None)
        for name, kind, modname, attrs in LAYERS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr in attrs:
                owner_name, _, meth = attr.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name, None)
                    namespaces = [owner] if owner is not None else []
                    original = vars(owner).get(meth) if owner is not None else None
                else:
                    namespaces = modules
                    original = getattr(mod, meth, None)
                if original is None:
                    continue
                if kind == SPAN:
                    err = cap_error if name in _CAP_COUNTED else None
                    wrapper = self._span_wrapper(name, original, err)
                else:
                    wrapper = self._count_wrapper(name, original)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is original:
                            self._undo.append((ns, key, original))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._undo):
            setattr(ns, key, original)
        self._undo.clear()

    # -- output ---------------------------------------------------------

    def spans(self):
        """Spans as (name, start, end, parent index, op id) tuples."""
        return [
            (self.names[n], s, e, p, o)
            for n, s, e, p, o in zip(self.span_name, self.span_start, self.span_end,
                                     self.span_parent, self.span_op)
        ]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def span_totals(spans):
    """Per span name: calls, busy_s and self_s from a span tree.

    ``spans`` holds (name, start, end, parent index, op id) tuples whose
    parent index points into the same list (-1 for a root).  busy_s sums
    the spans of a name that have no ancestor of the same name, so
    recursion is not counted twice; self_s is each span's duration minus
    the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += (end - start) - child_time[i]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            t["busy_s"] += end - start
    return totals


def per_layer_metrics(spans, counts, ops: int, overhead_ratio: float) -> dict:
    """Every PER_LAYER metric from a finished traced run."""
    totals = span_totals(spans)
    flat = dict(counts)
    for name, t in totals.items():
        for key, val in t.items():
            flat[f"{name}.{key}"] = val
    flat["wild.tilde_crosscheck.busy_s"] = sum(
        end - start
        for name, start, end, parent, _ in spans
        if name == "gensemi.tilde" and parent >= 0 and spans[parent][0] == "wild.wild_certificate"
    )
    calls = flat.get("gensemi.tilde.calls", 0)
    flat["gensemi.tilde.found_ratio"] = flat.get("gensemi.tilde.found", 0) / calls if calls else 0.0
    flat["trace.overhead_ratio"] = overhead_ratio
    flat["trace.ops"] = ops
    return {name: {"value": flat.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
