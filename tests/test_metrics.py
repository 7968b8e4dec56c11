"""Example-based multi-label scores, binary accuracy and binary F1."""

import numpy as np
import pytest

from poselang import metrics


class TestMultilabel:
    def test_known_values(self):
        pred = [{0, 1}, {2}]
        truth = [{1}, {2}]
        s = metrics.multilabel_scores(pred, truth)
        # Sample 1: inter 1, union 2 -> acc .5, prec .5, rec 1, f1 2/3.
        assert s.accuracy == pytest.approx((0.5 + 1.0) / 2)
        assert s.precision == pytest.approx((0.5 + 1.0) / 2)
        assert s.recall == pytest.approx(1.0)
        assert s.f1 == pytest.approx((2 / 3 + 1.0) / 2)

    def test_nhot_inputs(self):
        pred = [np.array([1, 1, 0])]
        truth = [np.array([0, 1, 0])]
        s = metrics.multilabel_scores(pred, truth)
        assert s.accuracy == pytest.approx(0.5)

    def test_empty_conventions(self):
        both_empty = metrics.multilabel_scores([set()], [set()])
        assert both_empty.f1 == 1.0
        one_empty = metrics.multilabel_scores([set()], [{1}])
        assert one_empty.accuracy == 0.0
        assert one_empty.precision == 0.0
        assert one_empty.f1 == 0.0

    def test_errors(self):
        with pytest.raises(metrics.LengthMismatch):
            metrics.multilabel_scores([{1}], [{1}, {2}])
        with pytest.raises(metrics.LengthMismatch):
            metrics.multilabel_scores([], [])


class TestBinaryAccuracy:
    def test_values(self):
        assert metrics.binary_accuracy([1, 0, 1, 1], [1, 1, 1, 0]) == 0.5
        assert metrics.binary_accuracy([0], [0]) == 1.0

    def test_errors(self):
        with pytest.raises(metrics.LengthMismatch):
            metrics.binary_accuracy([1, 0], [1])
        with pytest.raises(metrics.LengthMismatch):
            metrics.binary_accuracy([], [])


class TestBinaryF1:
    def test_known_values(self):
        # tp 2 (indices 0, 3), fp 1 (index 1), fn 1 (index 4):
        # precision 2/3, recall 2/3, F1 2/3.
        pred = [1, 1, 0, 1, 0, 0]
        truth = [1, 0, 0, 1, 1, 0]
        assert metrics.binary_f1(pred, truth) == pytest.approx(2 / 3)
        assert metrics.binary_f1(np.array(pred) == 1, truth) \
            == pytest.approx(2 / 3)

    def test_no_true_positive_scores_zero(self):
        assert metrics.binary_f1([0, 0, 1], [1, 1, 0]) == 0.0
        assert metrics.binary_f1([0, 0], [0, 0]) == 0.0

    def test_errors(self):
        with pytest.raises(metrics.LengthMismatch):
            metrics.binary_f1([1, 0], [1])
        with pytest.raises(metrics.LengthMismatch):
            metrics.binary_f1([], [])

def _rows():
    return {"m1": metrics.MultilabelScores(0.5, 0.25, 1.0, 0.4)}


def test_scores_csv():
    text = metrics.scores_csv(_rows())
    lines = text.strip().split("\n")
    assert lines[0] == "name,accuracy,precision,recall,f1"
    assert lines[1] == "m1,0.500000,0.250000,1.000000,0.400000"


def test_scores_table():
    text = metrics.scores_table(_rows())
    assert "Acc." in text and "F1" in text
    assert "0.500" in text and "0.400" in text
