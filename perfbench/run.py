"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a poselang checkout; the package is imported from
its `src/` directory.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "poselang" / "cli.py").is_file():
        print(f"error: no poselang sources under {src}; run from the root "
              f"of a poselang checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import bench, workloads

    available = workloads.workloads()
    if args.workload not in available:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(available)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        record = bench.run_workload(
            available[args.workload], args.seed, args.seconds,
            bool(args.trace), OUT_DIR,
            warmup=workloads.workloads(tiny=True)[args.workload])
    except bench.SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    except bench.NothingMeasured as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    bench.append_record(OUT_DIR / "results.jsonl", record)
    for problem in record["problems"]:
        print(f"check failed ({problem['kind']}): {problem['message']}",
              file=sys.stderr)
    result = record["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
