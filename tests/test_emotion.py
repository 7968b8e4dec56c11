"""Histogram sequences and the stage-2 networks."""

import numpy as np
import pytest

from poselang import bodylang, core, emotion, neural


LSETS = {"upper": core.LabelSet.from_classes(["a", "b"]),
         "lower": core.LabelSet.from_classes(["p", "q"])}


def _pred(upper, lower):
    n = len(upper)
    return bodylang.BodyLanguageSequence(
        clip_id="c", upper=np.array(upper), lower=np.array(lower),
        upper_conf=np.ones(n), lower_conf=np.ones(n), window_len=6, stride=3)


class TestHistogramSequence:
    def test_counts_and_invariant(self):
        pred = _pred([0, 0, 1, 2, 0, 1, 1, 2], [1, 1, 1, 0, 0, 0, 2, 2])
        hist = emotion.histogram_sequence(pred, LSETS, hist_len=4, stride=2)
        # K=8, L=4, S=2 -> starts 0, 2, 4.
        assert hist.n_steps == 3
        assert hist.steps.shape == (3, emotion.histogram_width(LSETS))
        # Raw counts: each half sums to L.
        assert np.all(hist.steps[:, :3].sum(axis=1) == 4)
        assert np.all(hist.steps[:, 3:].sum(axis=1) == 4)
        assert np.array_equal(hist.steps[0], [2, 1, 1, 1, 3, 0])

    def test_whole_video_when_l_exceeds_k(self):
        pred = _pred([0, 1, 2], [2, 2, 2])
        hist = emotion.histogram_sequence(pred, LSETS, hist_len=1000, stride=1)
        assert hist.n_steps == 1
        assert np.array_equal(hist.steps[0], [1, 1, 1, 0, 0, 3])

    def test_single_window_steps(self):
        pred = _pred([1, 0], [2, 1])
        hist = emotion.histogram_sequence(pred, LSETS, hist_len=1, stride=1)
        assert hist.n_steps == 2
        assert np.array_equal(hist.steps[0], [0, 1, 0, 0, 0, 1])

    def test_class_id_overflow(self):
        pred = _pred([5], [0])
        with pytest.raises(core.PoselangError):
            emotion.histogram_sequence(pred, LSETS, 1, 1)

    @pytest.mark.parametrize("hist_len, stride", [(4, 0), (4, -1), (0, 2),
                                                  (-3, 2)])
    def test_non_positive_length_or_stride(self, hist_len, stride):
        pred = _pred([0, 1, 0, 1, 0], [1, 1, 0, 0, 1])
        with pytest.raises(core.ValidationError, match="must be >= 1"):
            emotion.histogram_sequence(pred, LSETS, hist_len, stride)


def test_net_inputs_normalizes_halves():
    pred = _pred([0, 0, 1, 1, 2, 2], [0, 1, 2, 0, 1, 2])
    hist = emotion.histogram_sequence(pred, LSETS, hist_len=6, stride=3)
    x = emotion.net_inputs(hist)
    assert np.allclose(x.sum(axis=1), 2.0)
    assert np.allclose(x[:, :3].sum(axis=1), 1.0)
    # The raw sequence still carries counts.
    assert hist.steps.sum() == 12


class TestPredictors:
    def _hist(self):
        return emotion.histogram_sequence(_pred([0, 1], [1, 0]), LSETS, 2, 1)

    def test_predict_emotion(self):
        net = neural.RecurrentNet(input_dim=6, hidden=4,
                                  n_out=emotion.N_EMOTIONS, seed=0)
        pred = emotion.predict_emotion(self._hist(), net)
        assert pred.probabilities.shape == (emotion.N_EMOTIONS,)
        assert np.array_equal(pred.nhot, (pred.probabilities >= 0.5).astype(int))

    def test_predict_symptom(self):
        net = neural.RecurrentNet(input_dim=6, hidden=4, n_out=1, seed=0)
        p = emotion.predict_symptom(self._hist(), net)
        assert 0.0 <= p <= 1.0

    def test_head_shape_guard(self):
        net = neural.RecurrentNet(input_dim=6, hidden=4, n_out=3, seed=0)
        with pytest.raises(neural.ShapeMismatch):
            emotion.predict_emotion(self._hist(), net)
        with pytest.raises(neural.ShapeMismatch):
            emotion.predict_symptom(self._hist(), net)


class TestTraining:
    def _toy_data(self, rng, n=24):
        # Symptom = whether upper class 0 dominates; emotion 0 mirrors it.
        data = []
        for _ in range(n):
            dominant = int(rng.random() < 0.5)
            upper = rng.choice([0, 1], size=8,
                               p=[0.9, 0.1] if dominant else [0.1, 0.9])
            lower = rng.integers(0, 2, size=8)
            hist = emotion.histogram_sequence(
                _pred(upper.tolist(), lower.tolist()), LSETS, 4, 2)
            emo = np.zeros(emotion.N_EMOTIONS, dtype=int)
            emo[0 if dominant else 1] = 1
            data.append((hist, emo, dominant))
        return data

    def test_train_stage2_learns_toy_task(self):
        rng = np.random.default_rng(0)
        train, val = self._toy_data(rng, 32), self._toy_data(rng, 16)
        spec = neural.TrainSpec(learning_rate=0.5, epochs=60, batch_size=8,
                                seed=0, loss="bce")
        emo_net, sym_net, hist = emotion.train_stage2(
            train, val, LSETS, spec, patience=20)
        assert set(hist) == {"emotion_loss", "emotion_val_f1",
                             "symptom_loss", "symptom_val_f1"}
        assert hist["symptom_val_f1"] > 0.9
        test = self._toy_data(np.random.default_rng(1), 16)
        correct = sum(
            int(emotion.predict_symptom(h, sym_net) >= 0.5) == s
            for h, _, s in test)
        assert correct / len(test) > 0.85

    def test_early_stopping_restores_best(self):
        rng = np.random.default_rng(2)
        train = self._toy_data(rng, 16)
        val = self._toy_data(rng, 8)
        inputs = [emotion.net_inputs(d[0]) for d in train]
        targets = np.array([[d[2]] for d in train], dtype=float)
        vx = [emotion.net_inputs(d[0]) for d in val]
        vy = np.array([d[2] for d in val])
        net = neural.RecurrentNet(input_dim=6, hidden=4, n_out=1, seed=0)
        seen = []

        def score(n, xs, ys):
            seen.append(1)
            # Force an early best followed by "worse" scores.
            return 1.0 if len(seen) == 1 else 0.0

        spec = neural.TrainSpec(learning_rate=0.1, epochs=30, batch_size=8,
                                seed=0, loss="bce")
        curve, best = emotion.train_sequence_net(
            net, inputs, targets, spec, vx, vy, patience=2, score_fn=score)
        assert best == 1.0
        assert len(seen) == 4  # best epoch + patience 2 + the one that stops
        assert len(curve) == 4
