"""Tests of the benchmark itself: contract, smoke runs, span arithmetic, digests."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from vsbench import harness, schema, trace  # noqa: E402
from vsbench.workloads import WORKLOADS, scan_object  # noqa: E402


@pytest.fixture
def short_run(monkeypatch):
    """harness.run in this process with a small op floor and few set-ups;
    the copy of valsem loaded before goes back into sys.modules after."""
    monkeypatch.setattr(harness, "MIN_OPS", 1)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 3)
    saved = harness._valsem_modules()
    yield harness.run
    for name in harness._valsem_modules():
        del sys.modules[name]
    sys.modules.update(saved)


def test_benchmark_json_names_what_the_code_prints():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == trace.PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_checks_every_answer(workload, short_run):
    record = short_run(workload, harness.DEFAULT_SEED, 0.1, False)
    result = record["result"]
    assert result["correct"] is True, record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in harness.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["fail_ratio"] == 0
    assert record["digest_match"] is True


def test_command_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "expand", "--seed", "2",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= harness.MIN_OPS


def test_traced_run_reports_every_layer_metric(short_run):
    result = short_run("expand", 1, 0.1, True)["result"]
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in trace.PER_LAYER]
    ops = len(next(WORKLOADS["expand"].cycles(1)))
    assert metrics["trace.ops"] == ops
    assert metrics["genseq.expand.calls"] == ops
    assert metrics["poly.div_in_var.calls"] > 0
    assert metrics["gensemi.tilde.calls"] == 0
    assert metrics["trace.overhead_ratio"] > 0


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8];
    # e [20, 25] holds a recursive e [21, 22]
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 5.0, 9.0, 0, 0),
        ("d", 6.0, 8.0, 2, 0),
        ("e", 20.0, 25.0, -1, 1),
        ("e", 21.0, 22.0, 4, 1),
    ]
    totals = trace.span_totals(spans)
    assert totals["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert totals["b"]["self_s"] == 3.0
    assert totals["c"] == {"calls": 1, "busy_s": 4.0, "self_s": 2.0}
    assert totals["d"]["self_s"] == 2.0
    assert totals["e"] == {"calls": 2, "busy_s": 5.0, "self_s": 5.0}


def test_tilde_crosscheck_counts_only_tilde_under_wild_certificate():
    spans = [
        ("wild.wild_certificate", 0.0, 4.0, -1, 0),
        ("gensemi.tilde", 1.0, 2.5, 0, 0),
        ("gensemi.tilde", 5.0, 6.0, -1, 1),
    ]
    metrics = trace.per_layer_metrics(spans, {"gensemi.tilde.found": 1}, 2, 1.5)
    assert metrics["wild.tilde_crosscheck.busy_s"]["value"] == 1.5
    assert metrics["wild.wild_certificate.self_s"]["value"] == 2.5
    assert metrics["gensemi.tilde.found_ratio"]["value"] == 0.5


def test_digest_check_rejects_an_altered_answer():
    import valsem

    workload = WORKLOADS["expand"]
    state = workload.build(valsem)
    answers = []
    for op in next(workload.cycles(harness.DEFAULT_SEED)):
        ok, answer = workload.check(valsem, state, op, workload.run(valsem, state, op))
        assert ok
        answers.append(answer)
    altered = answers[:3] + [answers[3].replace("1", "2", 1)] + answers[4:]
    assert altered != answers
    for given, match in ((answers, True), (altered, False)):
        run = harness.Run("expand", harness.DEFAULT_SEED, 0)
        for answer in given:
            run.answers.add(answer)
        assert run.digest_ok() is match


def test_digest_of_parts_is_the_digest_of_their_concatenation():
    text = "x" * (3 * harness.CHUNK) + "\u221a2" * 5
    whole, parts = harness.Digest(), harness.Digest()
    whole.add("0\n" + text)
    parts.add(("0\n", text))
    assert whole.hexdigest() == parts.hexdigest()


def test_certificate_scan_sees_every_row_and_keeps_none():
    doc = {"kind": "both", "rows": [{"n": n} for n in range(5)], "valid": True}
    seen = []
    scanned = scan_object(json.dumps(doc, indent=2) + "\n", "rows", seen.append)
    assert seen == doc["rows"]
    assert scanned == {**doc, "rows": []}
    for bad in ('{"rows": [1 2]}', '{"a": 1 "b": 2}', '{"rows": []} x'):
        with pytest.raises(ValueError):
            scan_object(bad, "rows", seen.append)


def test_schema_check_rejects_a_bad_certificate_row():
    cert_schema = json.loads((ROOT / "src/valsem/schemas/certificate.json").read_text())
    row = {"n": 8, "i": 0, "chain": "P", "lambda": "1", "witness": "P_0",
           "lhs": "-1", "rhs": "-8", "ok": True}
    doc = {"kind": "decreasing", "valuation": {"form": "P3", "sigma": [1]},
           "params": {"a": "1", "c": 1}, "rows": [row], "valid": True}
    assert schema.errors(doc, cert_schema) == []
    assert schema.errors({**doc, "rows": [{**row, "chain": "X"}]}, cert_schema)
    assert schema.errors({**doc, "rows": [{**row, "n": True}]}, cert_schema)


def test_scaled_time_cancels_machine_speed():
    from vsbench import speed

    # the op and the loop both ran at half the reference speed
    slow = speed.REF_MS * 2
    assert speed.scale(0.5, slow, slow) == pytest.approx(0.25)
    assert speed.scale(0.3, speed.REF_MS, speed.REF_MS) == pytest.approx(0.3)
    assert speed.scale(1.0, speed.REF_MS, 3 * speed.REF_MS) == pytest.approx(0.5)
    assert speed.loop_ms() > 0


def test_record_keeps_the_measured_metrics(short_run):
    record = short_run("semigroup", 1, 0.1, False)
    names = [name for name, _ in harness.END_TO_END]
    assert list(record["measured"]) == names
    assert record["measured"]["peak_rss_mb"] == record["result"]["metrics"]["peak_rss_mb"]["value"]
    assert record["loop_ms"] > 0
