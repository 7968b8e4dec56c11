"""Compare two sets of benchmark runs, one per commit.

    python3 perfbench/compare.py PARENT/.perfbench_out/results.jsonl \
        CHANGE/.perfbench_out/results.jsonl

Each file holds one JSON record per run, as `run.py` appends them.  For
every workload and end-to-end metric of the untraced runs, prints both
sides' median and quartiles, the change of the median as a share of the
parent's, and whether that stays within the bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import stats  # noqa: E402

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict[tuple[str, str], list[float]]:
    values = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, metric in record["result"]["metrics"].items():
                values[(record["workload"], name)].append(metric["value"])
    return values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    spec = json.loads(SPEC.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':14s} {'metric':20s} {'parent q1/med/q3':>28s} "
          f"{'change q1/med/q3':>28s} {'worse by':>9s}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        m = metrics.get(name)
        if m is None:
            continue
        p, c = stats.quartiles(parent[key]), stats.quartiles(change[key])
        sign = 1.0 if m["better"] == "lower" else -1.0
        worse = sign * (c[1] - p[1]) / abs(p[1]) if p[1] else float("nan")
        if stats.relative_spread(parent[key]) > m["bound"]:
            verdict = "unresolved (parent spread above bound)"
        else:
            verdict = "within bound" if worse <= m["bound"] else "REGRESSION"
        print(f"{workload:14s} {name:20s} "
              f"{p[0]:9.4g}/{p[1]:9.4g}/{p[2]:9.4g} "
              f"{c[0]:9.4g}/{c[1]:9.4g}/{c[2]:9.4g} {worse:+9.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
