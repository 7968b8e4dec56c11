"""A failed command makes the run incorrect; a run with no complete round
reports nothing."""

import pytest

from perfbench import bench, workloads


def _rounds(workload):
    n = len(workload.steps)
    figures = {k: 0.5 for k in (*workload.accuracy_keys, *workload.f1_keys)}
    good = bench.Round(seconds=[1.0] * n, figures=figures)
    bad = bench.Round(seconds=[1.0] * n, failed=1,
                      problems=[("output", "`emotion train` exited 1: boom")])
    return good, bad


def test_failed_command_makes_run_incorrect():
    workload = workloads.workloads(tiny=True)["stage2-gt"]
    good, bad = _rounds(workload)
    result = bench.summarise(workload, 1, False, [1.0], [good, bad])["result"]
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == 2 * len(workload.steps)


def test_run_without_a_complete_round_reports_nothing():
    workload = workloads.workloads(tiny=True)["stage2-gt"]
    good, bad = _rounds(workload)
    with pytest.raises(bench.NothingMeasured, match="boom"):
        bench.summarise(workload, 1, False, [1.0], [bad])
    # A traced run needs a complete traced round as well.
    with pytest.raises(bench.NothingMeasured):
        bench.summarise(workload, 1, True, [1.0], [good])


def test_round_records_why_a_command_failed(tmp_path):
    workload = workloads.workloads(tiny=True)["stage2-gt"]
    rnd = bench.run_round(workload, bench.Runner(tmp_path), None, 0)
    assert rnd.failed == len(workload.steps)
    assert rnd.figures is None
    kind, message = rnd.problems[0]
    assert kind == "output"
    assert "exited 3: error: no dataset manifest" in message
