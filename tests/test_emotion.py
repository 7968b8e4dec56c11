"""Histogram sequences and the stage-2 networks."""

import numpy as np
import pytest

from poselang import bodylang, core, emotion, neural


LSETS = {"upper": core.LabelSet.from_classes(["a", "b"]),
         "lower": core.LabelSet.from_classes(["p", "q"])}


def _pred(upper, lower):
    n = len(upper)
    return bodylang.BodyLanguageSequence(
        clip_id="c", ids={"upper": np.array(upper), "lower": np.array(lower)},
        conf={"upper": np.ones(n), "lower": np.ones(n)})


class TestHistogramSequence:
    def test_counts_and_invariant(self):
        pred = _pred([0, 0, 1, 2, 0, 1, 1, 2], [1, 1, 1, 0, 0, 0, 2, 2])
        hist = emotion.histogram_sequence(pred, LSETS, hist_len=4, stride=2)
        # K=8, L=4, S=2 -> starts 0, 2, 4.
        assert len(hist) == 3
        assert hist.shape == (3, emotion.histogram_width(LSETS))
        # Raw counts: each half sums to L.
        assert np.all(hist[:, :3].sum(axis=1) == 4)
        assert np.all(hist[:, 3:].sum(axis=1) == 4)
        assert np.array_equal(hist[0], [2, 1, 1, 1, 3, 0])

    def test_whole_video_when_l_exceeds_k(self):
        pred = _pred([0, 1, 2], [2, 2, 2])
        hist = emotion.histogram_sequence(pred, LSETS, hist_len=1000, stride=1)
        assert len(hist) == 1
        assert np.array_equal(hist[0], [1, 1, 1, 0, 0, 3])

    def test_single_window_steps(self):
        pred = _pred([1, 0], [2, 1])
        hist = emotion.histogram_sequence(pred, LSETS, hist_len=1, stride=1)
        assert len(hist) == 2
        assert np.array_equal(hist[0], [0, 1, 0, 0, 0, 1])

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
    assert hist.sum() == 12


class TestPredictors:
    def _hists(self):
        return [emotion.histogram_sequence(_pred(up, lo), LSETS, 2, 1)
                for up, lo in (([0, 1], [1, 0]), ([1, 1, 0], [0, 2, 2]),
                               ([2, 0], [1, 1]))]

    def test_predict_emotion(self):
        net = neural.RecurrentNet(input_dim=6, hidden=4,
                                  n_out=emotion.N_EMOTIONS, seed=0)
        probs = emotion.predict_emotion(self._hists(), net)
        assert probs.shape == (3, emotion.N_EMOTIONS)
        assert np.all((0.0 <= probs) & (probs <= 1.0))

    def test_predict_symptom(self):
        net = neural.RecurrentNet(input_dim=6, hidden=4, n_out=1, seed=0)
        p = emotion.predict_symptom(self._hists(), net)
        assert p.shape == (3,)
        assert np.all((0.0 <= p) & (p <= 1.0))

    @pytest.mark.parametrize("make", [
        lambda n_out: neural.RecurrentNet(6, 4, n_out=n_out, seed=1),
        lambda n_out: neural.Conv1DNet(6, 4, n_out=n_out, seed=1)])
    def test_grouped_scoring_matches_one_clip_at_a_time(self, make):
        hists = self._hists()
        for n_out in (1, emotion.N_EMOTIONS):
            net = make(n_out)
            probs = emotion.predict_probabilities(
                net, [emotion.net_inputs(h) for h in hists])
            alone = [net.predict_proba(emotion.net_inputs(h))[0]
                     for h in hists]
            assert np.array_equal(probs, np.array(alone))

    def test_head_shape_guard(self):
        net = neural.RecurrentNet(input_dim=6, hidden=4, n_out=3, seed=0)
        with pytest.raises(neural.ShapeMismatch):
            emotion.predict_emotion(self._hists(), net)
        with pytest.raises(neural.ShapeMismatch):
            emotion.predict_symptom(self._hists(), net)


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
            targets = {"emotion": np.zeros(emotion.N_EMOTIONS, dtype=bool),
                       "symptom": np.array([bool(dominant)])}
            targets["emotion"][0 if dominant else 1] = True
            data.append((hist, targets))
        return data

    @staticmethod
    def _pairs(data, task):
        return [(hist, targets[task]) for hist, targets in data]

    def test_train_stage2_learns_toy_task(self):
        rng = np.random.default_rng(0)
        train, val = (self._pairs(self._toy_data(rng, n), "symptom")
                      for n in (32, 16))
        spec = neural.TrainSpec(learning_rate=0.5, epochs=60, batch_size=8,
                                seed=0)
        sym_net, hist = emotion.train_stage2(train, val, LSETS, spec,
                                             "symptom")
        assert set(hist) == {"loss", "val_f1"}
        assert hist["val_f1"] > 0.9
        test = self._pairs(self._toy_data(np.random.default_rng(1), 16),
                           "symptom")
        probs = emotion.predict_symptom([h for h, _ in test], sym_net)
        correct = sum((p >= 0.5) == y[0] for p, (_, y) in zip(probs, test))
        assert correct / len(test) > 0.85

    def test_trains_only_the_requested_head(self):
        rng = np.random.default_rng(3)
        train, val = self._toy_data(rng, 12), self._toy_data(rng, 6)
        spec = neural.TrainSpec(learning_rate=0.5, epochs=4, batch_size=8,
                                seed=5)
        emo, _ = emotion.train_stage2(self._pairs(train, "emotion"),
                                      self._pairs(val, "emotion"), LSETS,
                                      spec, "emotion")
        sym, _ = emotion.train_stage2(self._pairs(train, "symptom"),
                                      self._pairs(val, "symptom"), LSETS,
                                      spec, "symptom")
        assert emo.seed == 5 and emo.config["n_out"] == emotion.N_EMOTIONS
        assert sym.seed == 6 and sym.config["n_out"] == 1
        with pytest.raises(core.PoselangError, match="unknown stage-2 task"):
            emotion.train_stage2(self._pairs(train, "symptom"),
                                 self._pairs(val, "symptom"), LSETS, spec,
                                 "mood")

    @pytest.mark.parametrize("task", ["emotion", "symptom"])
    def test_task_table_matches_the_heads(self, task):
        head = emotion.TASKS[task]
        n_out = emotion.N_EMOTIONS if task == "emotion" else 1
        assert len(head.names) == n_out
        pred = np.array([[1] * n_out, [0] * n_out])
        assert head.score(pred, pred) == 1.0

    def test_early_stopping_restores_best(self):
        rng = np.random.default_rng(2)
        train = self._pairs(self._toy_data(rng, 16), "symptom")
        val = self._pairs(self._toy_data(rng, 8), "symptom")
        inputs = [emotion.net_inputs(h) for h, _ in train]
        targets = np.array([y for _, y in train], dtype=float)
        vx = [emotion.net_inputs(h) for h, _ in val]
        vy = np.array([y for _, y in val])
        net = neural.RecurrentNet(input_dim=6, hidden=4, n_out=1, seed=0)
        seen = []

        def score(pred, truth):
            assert pred.shape == truth.shape == (8, 1)
            seen.append(1)
            # Force an early best followed by "worse" scores.
            return 1.0 if len(seen) == 1 else 0.0

        spec = neural.TrainSpec(learning_rate=0.1, epochs=30, batch_size=8,
                                seed=0)
        curve, best = emotion.train_sequence_net(
            net, inputs, targets, spec, vx, vy, patience=2, score_fn=score)
        assert best == 1.0
        assert len(seen) == 4  # best epoch + patience 2 + the one that stops
        assert len(curve) == 4
