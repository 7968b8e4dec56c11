"""The benchmark's own arithmetic: order statistics and span self times."""

import statistics

import pytest

from perfbench import stats, trace


def test_median_and_quartiles_follow_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0, 6.0, 9.0, 8.0]
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert q2 == stats.median(values) == 5.5
    # Exclusive method: positions (n + 1) p = 2.75 and 8.25.
    assert q1 == pytest.approx(2.75)
    assert q3 == pytest.approx(8.25)
    assert stats.relative_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_single_value_has_no_spread():
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert stats.relative_spread([3.0]) == 0.0


def test_empty_and_zero_median_are_rejected():
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.relative_spread([0.0, 0.0, 0.0])


def _spans():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> a [5, 9] -> a [6, 8]
    return [
        ["root", 0.0, 10.0, -1, "0.0"],
        ["a", 1.0, 4.0, 0, "0.0"],
        ["b", 2.0, 3.0, 1, "0.0"],
        ["a", 5.0, 9.0, 0, "0.0"],
        ["a", 6.0, 8.0, 3, "0.0"],
    ]


def test_self_time_subtracts_direct_children():
    assert trace.self_times(_spans()) == [3.0, 2.0, 1.0, 2.0, 2.0]


def test_summary_counts_nested_same_name_once():
    summary = trace.SpanSummary(_spans())
    assert summary.inclusive["root"] == 10.0
    assert summary.inclusive["a"] == 3.0 + 4.0
    assert summary.inclusive["b"] == 1.0
    assert summary.self["a"] == 2.0 + 2.0 + 2.0
    # Self times add up to the root's wall time.
    assert sum(summary.self.values()) == summary.inclusive["root"]


def test_validation_counts_predict_proba_directly_inside_training():
    spans = [
        ["emotion.train_sequence_net", 0.0, 10.0, -1, "0.0"],
        ["neural.predict_proba", 1.0, 3.0, 0, "0.0"],
        ["neural.sigmoid", 1.5, 2.0, 1, "0.0"],
        ["neural.predict_proba", 4.0, 4.5, 0, "0.0"],
        ["neural.predict_proba", 11.0, 12.0, -1, "0.0"],  # test-set scoring
    ]
    assert trace.validation_seconds(spans) == 2.5


def test_tracer_records_parents_and_commands():
    tracer = trace.Tracer()
    tracer.command = "0.1"
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert outer[trace.PARENT] == -1 and inner[trace.PARENT] == 0
    assert outer[trace.COMMAND] == inner[trace.COMMAND] == "0.1"
    assert outer[trace.START] <= inner[trace.START] <= inner[trace.END] \
        <= outer[trace.END]


def test_instrument_wraps_and_restores():
    from poselang import neural
    import numpy as np

    original = neural.__dict__["sigmoid"]
    tracer = trace.Tracer()
    with trace.instrument(tracer):
        neural.sigmoid(np.zeros(3))
        assert neural.sigmoid is not original
    assert neural.sigmoid is original
    assert [s[trace.NAME] for s in tracer.spans] == ["neural.sigmoid"]
    assert tracer.counts["neural.sigmoid.calls"] == 1
    metrics = trace.layer_metrics(tracer.spans, tracer.counts)
    assert set(metrics) == set(trace.LAYER_UNITS)
    assert metrics["neural.sigmoid.calls"] == 1
