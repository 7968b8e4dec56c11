"""Each workload runs to its end at a tiny size, and the command-line
surface matches BENCHMARK.json."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, trace, workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(workloads.workloads(tiny=True)))
def test_tiny_workload_completes(name, tmp_path):
    workload = workloads.workloads(tiny=True)[name]
    record = bench.run_workload(workload, seed=3, seconds=0.1, traced=True,
                                out_dir=tmp_path)
    result = record["result"]
    assert result["failed"] == 0
    assert result["attempted"] == 2 * len(workload.steps)
    # Quality floors need full-size data; every other check must pass.
    figures = record["figures"]
    assert figures is not None
    output_problems = [p for p in record["problems"] if p["kind"] == "output"]
    assert output_problems == []
    metrics = result["metrics"]
    assert set(metrics) == set(trace.LAYER_UNITS) | set(bench.TRACE_EXTRA)
    assert metrics["cli." + workload.steps[0].command + ".s"]["value"] > 0
    assert record["end_to_end"]["total_s"] > 0
    assert not any(p.name.startswith("work-") for p in tmp_path.iterdir())


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.workloads())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**trace.LAYER_UNITS, **bench.TRACE_EXTRA}


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stage2-gt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
