"""Stage 2: histogram sequences over predicted body language, recurrent
multi-label emotion prediction, and binary symptom prediction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics, neural
from .bodylang import BodyLanguageSequence
from .core import LabelSet, PoselangError, ValidationError

N_EMOTIONS = 25  # 24 labeled emotions plus background


def histogram_width(label_sets: dict[str, LabelSet]) -> int:
    return len(label_sets["upper"]) + len(label_sets["lower"])


def histogram_sequence(pred: BodyLanguageSequence,
                       label_sets: dict[str, LabelSet],
                       hist_len: int, stride: int) -> np.ndarray:
    """(n_steps, width) class counts in length-L slices of both tracks.

    Each step concatenates an upper-track and a lower-track histogram;
    counts are raw (each half sums to the slice length) so the network can
    recover the window size.  With L=1, S=1 each step is a pair of
    one-hots; with L >= K a single video-level histogram is produced (the
    track is used whole, so the halves sum to K).
    """
    if hist_len < 1 or stride < 1:
        raise ValidationError(
            f"histogram length L={hist_len} and stride S={stride} must be >= 1")
    K = pred.n_windows
    n_upper = pred.upper.max(initial=0) + 1
    n_lower = pred.lower.max(initial=0) + 1
    w_upper = len(label_sets["upper"])
    w_lower = len(label_sets["lower"])
    if n_upper > w_upper or n_lower > w_lower:
        raise PoselangError("prediction class ids exceed the label sets")
    if K >= hist_len:
        starts = np.arange((K - hist_len) // stride + 1) * stride
        L = hist_len
    else:
        starts = np.array([0])
        L = K
    steps = np.zeros((len(starts), w_upper + w_lower))
    for i, s0 in enumerate(starts):
        steps[i, :w_upper] = np.bincount(pred.upper[s0:s0 + L], minlength=w_upper)
        steps[i, w_upper:] = np.bincount(pred.lower[s0:s0 + L], minlength=w_lower)
    return steps


def net_inputs(hist: np.ndarray) -> np.ndarray:
    """Steps rescaled so each track's half sums to ~1.

    The sequence itself carries raw counts; the nets see normalized
    histograms so the input magnitude does not grow with the window
    length and saturate the gates.
    """
    half = hist.sum(axis=1, keepdims=True) / 2.0
    return hist / np.maximum(half, 1.0)


@dataclass
class EmotionPrediction:
    probabilities: np.ndarray  # (25,)
    nhot: np.ndarray           # (25,) ints


def predict_emotion(hist: np.ndarray, net) -> EmotionPrediction:
    """Per-class sigmoid probabilities with a 0.5 presence threshold."""
    probs = net.predict_proba(net_inputs(hist))[0]
    if probs.shape != (N_EMOTIONS,):
        raise neural.ShapeMismatch(f"emotion head returned {probs.shape}")
    return EmotionPrediction(probabilities=probs,
                             nhot=(probs >= 0.5).astype(int))


def predict_symptom(hist: np.ndarray, net) -> float:
    """Probability of manic episode (vs major depressive disorder)."""
    probs = net.predict_proba(net_inputs(hist))[0]
    if probs.shape != (1,):
        raise neural.ShapeMismatch(f"symptom head returned {probs.shape}")
    return float(probs[0])


# ---------------------------------------------------------------------------
# Training

def _emotion_f1(net, inputs, targets) -> float:
    preds = [(net.predict_proba(x)[0] >= 0.5).astype(int) for x in inputs]
    return metrics.multilabel_scores(preds, list(targets)).f1


def _binary_f1(net, inputs, targets) -> float:
    preds = np.array([int(net.predict_proba(x)[0][0] >= 0.5) for x in inputs])
    truth = np.asarray(targets).ravel().astype(int)
    tp = int(((preds == 1) & (truth == 1)).sum())
    fp = int(((preds == 1) & (truth == 0)).sum())
    fn = int(((preds == 0) & (truth == 1)).sum())
    if tp == 0:
        return 0.0
    prec = tp / (tp + fp)
    rec = tp / (tp + fn)
    return 2 * prec * rec / (prec + rec)


def train_sequence_net(net, train_inputs, train_targets, spec: neural.TrainSpec,
                       val_inputs=None, val_targets=None, patience: int = 10,
                       score_fn=None):
    """SGD with momentum over variable-length sequences; early stopping on
    the validation score with the given patience.  Returns (loss curve,
    best validation score or None); the net holds the best parameters.
    """
    opt = neural.SGD(net.params(), spec.learning_rate, spec.momentum)
    rng = np.random.default_rng((spec.seed, 7))
    targets = np.asarray(train_targets, dtype=np.float64)
    n = len(train_inputs)
    curve = []
    best_score = -np.inf
    best_params = None
    stale = 0
    use_val = val_inputs is not None and score_fn is not None
    for epoch in range(spec.epochs):
        total, count = 0.0, 0
        order = rng.permutation(n)
        for i in range(0, n, spec.batch_size):
            idx = order[i:i + spec.batch_size]
            groups: dict[int, list[int]] = {}
            for j in idx:
                groups.setdefault(train_inputs[j].shape[0], []).append(j)
            for _, group in sorted(groups.items()):
                sub = np.array(group)
                x = np.stack([train_inputs[j] for j in sub])
                y = targets[sub]
                if y.ndim == 1:
                    y = y[:, None]
                logits = net.forward(x)
                loss, dlogits = neural.bce_with_logits(logits, y)
                if not np.isfinite(loss):
                    raise neural.DivergedLoss(f"loss diverged at epoch {epoch}")
                net.backward(dlogits)
                opt.step(net.grads())
                total += loss * len(sub)
                count += len(sub)
        curve.append(total / count)
        if use_val:
            score = score_fn(net, val_inputs, val_targets)
            if score > best_score + 1e-12:
                best_score = score
                best_params = [p.copy() for p in net.params()]
                stale = 0
            else:
                stale += 1
                if stale > patience:
                    break
    if best_params is not None:
        for p, bp in zip(net.params(), best_params):
            p[...] = bp
    return curve, (best_score if use_val else None)


def train_stage2(train_data, val_data, label_sets: dict[str, LabelSet],
                 spec: neural.TrainSpec, net_kind: str = "recurrent",
                 hidden: int = 64, patience: int = 10):
    """Train the emotion and symptom nets on histogram sequences.

    `train_data`/`val_data` are lists of (histogram sequence, emotion nhot,
    symptom label).  Emotion and symptom share the featurizer but train
    separate nets.
    """
    width = histogram_width(label_sets)

    def make_net(n_out, seed):
        if net_kind == "recurrent":
            return neural.RecurrentNet(input_dim=width, hidden=hidden,
                                       n_out=n_out, seed=seed)
        return neural.Conv1DNet(input_dim=width, channels=hidden,
                                n_out=n_out, seed=seed)

    train_data = list(train_data)
    tr_x = [net_inputs(d[0]) for d in train_data]
    tr_emo = np.array([d[1] for d in train_data], dtype=np.float64)
    tr_sym = np.array([[d[2]] for d in train_data], dtype=np.float64)
    va_x = [net_inputs(d[0]) for d in val_data]
    va_emo = [np.asarray(d[1], dtype=int) for d in val_data]
    va_sym = np.array([d[2] for d in val_data], dtype=int)

    emo_net = make_net(N_EMOTIONS, spec.seed)
    emo_curve, emo_val = train_sequence_net(
        emo_net, tr_x, tr_emo, spec, va_x, va_emo, patience, _emotion_f1)

    sym_net = make_net(1, spec.seed + 1)
    sym_curve, sym_val = train_sequence_net(
        sym_net, tr_x, tr_sym, spec, va_x, va_sym, patience, _binary_f1)

    history = {"emotion_loss": emo_curve, "emotion_val_f1": emo_val,
               "symptom_loss": sym_curve, "symptom_val_f1": sym_val}
    return emo_net, sym_net, history
