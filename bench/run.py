"""valsem benchmark: one workload, one closed-loop client, one process.

Usage (from the repository root):

    python3 bench/run.py --workload expand|semigroup|cli --seed N --seconds S --trace 0|1

With --trace 0 it prints the end-to-end metrics; with --trace 1 it also
replays the first cycles with wrappers on valsem's public functions and
prints the per-layer metrics instead.  Every answer is checked.  The last
line of stdout is the JSON result; the line before it is a readable
summary with the seed, git sha, Python version, nproc and fail_ratio.
The full record goes to bench/out/.  Exit code 0 means every check
passed, 1 a failed check or digest, 2 that valsem could not be loaded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
CONFIG = BENCH_DIR.parent / "BENCHMARK.json"


def main(argv=None) -> int:
    from vsbench import harness
    from vsbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(CONFIG.read_text())["run_seconds"],
                        help="timed op total to reach; whole cycles are run "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "valsem" / "__init__.py").is_file():
        print(f"error: no valsem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    harness.OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (harness.OUT_DIR / name).write_text(json.dumps(record, indent=2) + "\n")

    result = record["result"]
    shown = ", ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items())
    print(f"{args.workload} seed={record['seed']} sha={record['git_sha'][:12]} "
          f"python={record['python']} nproc={record['nproc']} samples={record['samples']} "
          f"fail_ratio={record['fail_ratio']:.6g} digest_match={record['digest_match']} | {shown}")
    for failure in record["failures"]:
        print("failed:", failure, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
