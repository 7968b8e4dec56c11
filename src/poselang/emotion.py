"""Stage 2: histogram sequences over predicted body language, recurrent
multi-label emotion prediction, and binary symptom prediction."""

from __future__ import annotations

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


def predict_probabilities(net, inputs) -> np.ndarray:
    """(n, n_out) probabilities for `n` variable-length net inputs.

    Clips of one length share a `predict_proba` call, whose rows have the
    bits of scoring each clip alone.
    """
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(inputs):
        groups.setdefault(x.shape[0], []).append(i)
    probs = np.empty((len(inputs), net.config["n_out"]))
    for idx in groups.values():
        probs[idx] = net.predict_proba(np.stack([inputs[i] for i in idx]))
    return probs


def _head_probabilities(hists, net, n_out: int, task: str) -> np.ndarray:
    if net.config["n_out"] != n_out:
        raise neural.ShapeMismatch(
            f"{task} head has {net.config['n_out']} outputs, not {n_out}")
    return predict_probabilities(net, [net_inputs(h) for h in hists])


def predict_emotion(hists, net) -> np.ndarray:
    """(n, 25) per-class sigmoid probabilities, one row per histogram
    sequence; an emotion is present at probability >= 0.5."""
    return _head_probabilities(hists, net, N_EMOTIONS, "emotion")


def predict_symptom(hists, net) -> np.ndarray:
    """Probability of manic episode (vs major depressive disorder) for each
    histogram sequence."""
    return _head_probabilities(hists, net, 1, "symptom")[:, 0]


# ---------------------------------------------------------------------------
# Training

def _emotion_f1(net, inputs, targets) -> float:
    return metrics.multilabel_scores(predict_probabilities(net, inputs) >= 0.5,
                                     targets).f1


def _symptom_f1(net, inputs, targets) -> float:
    return metrics.binary_f1(predict_probabilities(net, inputs)[:, 0] >= 0.5,
                             targets)


def train_sequence_net(net, train_inputs, train_targets, spec: neural.TrainSpec,
                       val_inputs, val_targets, patience: int, score_fn):
    """`neural.epochs` with early stopping: after each epoch the net is
    scored on the validation split, and training stops once the score has
    not improved for more than `patience` epochs.  Returns (loss curve,
    best validation score); the net holds the best parameters.
    """
    curve = []
    best_score, best_params, stale = -np.inf, None, 0
    for loss in neural.epochs(net, train_inputs, train_targets, spec):
        curve.append(loss)
        score = score_fn(net, val_inputs, val_targets)
        if score > best_score + 1e-12:
            best_score, stale = score, 0
            best_params = [p.copy() for p in net.params()]
        else:
            stale += 1
            if stale > patience:
                break
    for p, bp in zip(net.params(), best_params):
        p[...] = bp
    return curve, best_score


def train_stage2(train_data, val_data, label_sets: dict[str, LabelSet],
                 spec: neural.TrainSpec, task: str,
                 net_kind: str = "recurrent", hidden: int = 64,
                 patience: int = 10):
    """Train the emotion or the symptom net on histogram sequences.

    `train_data`/`val_data` are lists of (histogram sequence, emotion nhot,
    symptom label).  The emotion net is seeded with `spec.seed` and the
    symptom net with `spec.seed + 1`, so each is the same whichever else is
    trained.  Returns the net (holding its best-validation parameters) and
    a history with its loss curve and best validation F1.
    """
    if task == "emotion":
        n_out, seed, column, score_fn = N_EMOTIONS, spec.seed, 1, _emotion_f1
    elif task == "symptom":
        n_out, seed, column, score_fn = 1, spec.seed + 1, 2, _symptom_f1
    else:
        raise PoselangError(f"unknown stage-2 task {task!r}")
    width = histogram_width(label_sets)
    if net_kind == "recurrent":
        net = neural.RecurrentNet(input_dim=width, hidden=hidden,
                                  n_out=n_out, seed=seed)
    else:
        net = neural.Conv1DNet(input_dim=width, channels=hidden,
                               n_out=n_out, seed=seed)
    tr_x = [net_inputs(d[0]) for d in train_data]
    tr_y = np.array([d[column] for d in train_data],
                    dtype=np.float64).reshape(-1, n_out)
    va_x = [net_inputs(d[0]) for d in val_data]
    va_y = [np.asarray(d[column], dtype=int) for d in val_data]
    curve, val_f1 = train_sequence_net(net, tr_x, tr_y, spec, va_x, va_y,
                                       patience, score_fn)
    return net, {"loss": curve, "val_f1": val_f1}
