"""Set-up, the closed timed loop, metrics, digests and the traced replay."""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from . import speed, trace
from .workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 21  # spread over the run, so set-up sees the run's machine speed
MIN_OPS = 100  # at least ten samples lie beyond op_p90_ms
CHUNK = 1 << 16  # characters hashed at a time, so no answer is copied whole
MAX_WALL_S = 120.0  # stop early rather than overrun the run's time limit

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def _valsem_modules():
    return {n: m for n, m in sys.modules.items() if n == "valsem" or n.startswith("valsem.")}


def fresh_import(names):
    """Import valsem anew, dropping any copy already loaded."""
    for name in _valsem_modules():
        del sys.modules[name]
    for name in names:
        importlib.import_module(name)
    return sys.modules["valsem"]


def setup(workload):
    """(valsem, state, (scaled, measured)): the seconds from before the
    import to the first op, scaled to the reference speed and as measured.

    Garbage left by earlier copies is collected first, outside the time."""
    gc.collect()
    before = speed.loop_ms()
    start = perf_counter()
    vs = fresh_import(workload.modules)
    state = workload.build(vs)
    took = perf_counter() - start
    return vs, state, (speed.scale(took, before, speed.loop_ms()), took)


def spare_setup(workload):
    """Time one more set-up and throw it away; the copy of valsem the ops
    use goes back into sys.modules, where the traced run looks for it."""
    in_use = _valsem_modules()
    try:
        return setup(workload)[2]
    finally:
        for name in _valsem_modules():
            del sys.modules[name]
        sys.modules.update(in_use)


def _parts(answer):
    return (answer,) if isinstance(answer, str) else answer


def utf8_len(text: str) -> int:
    if text.isascii():
        return len(text)
    return sum(len(text[i:i + CHUNK].encode()) for i in range(0, len(text), CHUNK))


def preview(answer) -> str:
    return "".join(part[:500] for part in _parts(answer))[:500]


class Digest:
    """sha256 over answers, each framed by its UTF-8 length.

    An answer is a str, or a tuple of strs hashed as their concatenation
    without building it, so a large output is not copied to be hashed."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, answer) -> None:
        parts = _parts(answer)
        self._h.update(sum(utf8_len(p) for p in parts).to_bytes(8, "big"))
        for part in parts:
            for i in range(0, len(part), CHUNK):
                self._h.update(part[i:i + CHUNK].encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def expected_digest(workload_name: str, seed: int):
    """The recorded digest of the first cycle's answers, if this seed has one."""
    try:
        recorded = json.loads(EXPECTED.read_text())
    except FileNotFoundError:
        return None
    if recorded.get("seed") != seed:
        return None
    return recorded.get("digests", {}).get(workload_name)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"seed": seed, "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": nproc}


def metrics_of(latencies, setups, rss_mb) -> dict:
    """The end-to-end metrics from op latencies and set-up times in seconds."""
    lat_ms = sorted(t * 1000 for t in latencies)
    deciles = statistics.quantiles(lat_ms, n=10) if len(lat_ms) > 1 else lat_ms * 9
    return {
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1000),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": deciles[8],
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload_name: str, seed: int, seconds: float):
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.latencies: list = []  # scaled to the reference speed
        self.measured: list = []  # as measured
        self.failures: list = []
        self.cycles: list = []
        self.answers = Digest()  # of the first cycle
        self.replayed = 0

    def _op(self, vs, state, op, tracer=None, op_id=-1):
        """Time one op, then check it; returns (latency, ok, answer).

        The latency is (scaled, measured) seconds; scaled reads the
        machine speed just before and just after the op.  A raising op
        or check is a failed op, not a crash of the run."""
        if tracer is not None:
            tracer.op = op_id
        before = speed.loop_ms()
        start = perf_counter()
        try:
            result, error = self.workload.run(vs, state, op), None
        except Exception as exc:
            result, error = None, exc
        finally:
            took = perf_counter() - start
            if tracer is not None:
                tracer.op = -1
        latency = (speed.scale(took, before, speed.loop_ms()), took)
        if error is not None:
            return latency, False, f"error {error!r}"
        if tracer is not None and self.workload.name == "cli":
            tracer.count("cli.output_bytes", utf8_len(result[1]))
        try:
            ok, answer = self.workload.check(vs, state, op, result)
        except Exception as exc:
            return latency, False, f"check error {exc!r}"
        return latency, ok, answer

    def measure(self):
        """Set up once, then run whole cycles until both the measured op
        total reaches ``seconds`` and MIN_OPS ops are done.  The other
        set-ups are timed between ops, one each time another
        1/SETUP_REPEATS of ``seconds`` of op time has passed, and the rest
        at the end.  Returns the metrics from scaled times and, beside
        them, the same metrics from measured times."""
        vs, state, took = setup(self.workload)
        setups = [took]
        self.vs, self.state = vs, state
        op_total = 0.0
        wall0 = perf_counter()
        for cycle in self.workload.cycles(self.seed):
            first = not self.cycles
            self.cycles.append(cycle)
            for op in cycle:
                (latency, took), ok, answer = self._op(vs, state, op)
                self.latencies.append(latency)
                self.measured.append(took)
                op_total += took
                if not ok:
                    self.failures.append((op, preview(answer)))
                if first:
                    self.answers.add(answer)
                del answer  # so the next op does not run beside this output
                if (len(setups) < SETUP_REPEATS
                        and op_total >= self.seconds * len(setups) / SETUP_REPEATS):
                    setups.append(spare_setup(self.workload))
            if op_total >= self.seconds and len(self.latencies) >= MIN_OPS:
                break
            if perf_counter() - wall0 > MAX_WALL_S:
                break
        while len(setups) < SETUP_REPEATS:
            setups.append(spare_setup(self.workload))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scaled, measured = zip(*setups)
        return (metrics_of(self.latencies, scaled, rss),
                metrics_of(self.measured, measured, rss))

    def traced_replay(self):
        """Replay the first trace_cycles cycles, each op once untraced and
        then once with the wrappers on, back to back so that a change in
        machine speed hits both alike.

        Returns (tracer, ops replayed, traced seconds, untraced seconds)."""
        ops = [op for cycle in self.cycles[: self.workload.trace_cycles] for op in cycle]
        tracer = trace.Tracer()
        traced = untraced = 0.0
        for op_id, op in enumerate(ops):
            for on in (False, True):
                if on:
                    tracer.install()
                try:
                    (_, latency), ok, answer = self._op(self.vs, self.state, op,
                                                        tracer if on else None, op_id)
                finally:
                    tracer.uninstall()
                if on:
                    traced += latency
                else:
                    untraced += latency
                self.replayed += 1
                if not ok:
                    self.failures.append((op, preview(answer)))
                del answer
        return tracer, len(ops), traced, untraced

    def digest_ok(self):
        """None when this seed has no recorded digest, else a match flag."""
        want = expected_digest(self.workload.name, self.seed)
        return None if want is None else self.answers.hexdigest() == want


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Measure one workload; returns the result record."""
    bench = Run(workload_name, seed, seconds)
    e2e, measured = bench.measure()
    record = {"workload": workload_name, "trace": int(traced), **environment(seed)}
    if traced:
        tracer, ops, t_traced, t_untraced = bench.traced_replay()
        metrics = trace.per_layer_metrics(tracer.spans(), tracer.counts, ops,
                                          t_traced / t_untraced if t_untraced else 0.0)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{workload_name}.tsv")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    match = bench.digest_ok()
    failed = len(bench.failures)
    attempted = len(bench.latencies) + bench.replayed
    record.update({
        "samples": len(bench.latencies),
        "measured": measured,
        "loop_ms": speed.loop_ms(),
        "fail_ratio": failed / attempted,
        "digest": bench.answers.hexdigest(),
        "digest_match": match,
        "failures": [repr(f) for f in bench.failures[:10]],
        "result": {"correct": failed == 0 and match is not False, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    })
    return record
