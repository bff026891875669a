"""Run the benchmark over many seeds and summarise each metric.

Usage (from the repository root):

    python3 bench/baseline.py [--runs 10] [--workloads expand,semigroup,cli]
                              [--seconds S] [--trace 0|1] [--write FILE]

Runs bench/run.py once per seed (1 to --runs) and workload, one after
another, and prints for every metric the median, the quartiles and the
spread: the distance between the quartiles as a share of the median.  A spread
above a third of the metric's bound in BENCHMARK.json is flagged.
--write stores the same figures as JSON, the form of bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    report = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            print(lines[-2])
            runs.append(json.loads(lines[-1]))
        if not runs:
            continue
        record = json.loads((BENCH_DIR / "out" / f"{workload}-seed{seeds[-1]}"
                             f"-trace{args.trace}.json").read_text())
        report.update({k: record[k] for k in ("git_sha", "python", "nproc")})
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            stats = summary([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = first["unit"]
            metrics[name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound and stats["spread"] > bound / 3:
                flag = f"  <-- spread above bound/3 ({bound / 3:.3f})"
            print(f"  {workload:10s} {name:40s} median {stats['median']:12.6g} "
                  f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} "
                  f"spread {stats['spread']:.4f}{flag}")
        report["workloads"][workload] = {"runs": len(runs), "metrics": metrics}
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
