"""Stage 2: histogram sequences over predicted body language, recurrent
multi-label emotion prediction, and binary symptom prediction."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import metrics, neural
from .bodylang import BodyLanguageSequence
from .core import EMOTION_NAMES, TRACKS, LabelSet, PoselangError, ValidationError

N_EMOTIONS = len(EMOTION_NAMES)  # 24 labeled emotions plus background

HIDDEN = 64     # LSTM units or Conv1D channels of either head
PATIENCE = 50   # epochs without a better validation score before stopping
STAGE2_SPEC = neural.TrainSpec(learning_rate=0.5, epochs=400, batch_size=16)


class Task(NamedTuple):
    """One stage-2 head: the names whose presence it predicts (one sigmoid
    output each), its seed offset from `spec.seed`, and its validation
    score over (n, n_out) 0/1 prediction and target arrays."""

    names: tuple[str, ...]
    seed_offset: int
    score: Callable[[np.ndarray, np.ndarray], float]


TASKS = {
    "emotion": Task(EMOTION_NAMES, 0, lambda pred, truth:
                    metrics.multilabel_scores(pred, truth).f1),
    "symptom": Task(("ME",), 1, metrics.binary_f1),
}


def histogram_width(label_sets: dict[str, LabelSet]) -> int:
    return sum(len(label_sets[track]) for track in TRACKS)


def histogram_sequence(pred: BodyLanguageSequence,
                       label_sets: dict[str, LabelSet],
                       hist_len: int, stride: int) -> np.ndarray:
    """(n_steps, width) class counts in length-L slices of every track.

    Each step concatenates one histogram per track, in `TRACKS` order;
    counts are raw (each half sums to the slice length) so the network can
    recover the window size.  With L=1, S=1 each step is a pair of
    one-hots; with L >= K a single video-level histogram is produced (the
    track is used whole, so the halves sum to K).
    """
    if hist_len < 1 or stride < 1:
        raise ValidationError(
            f"histogram length L={hist_len} and stride S={stride} must be >= 1")
    K = pred.n_windows
    widths = [len(label_sets[track]) for track in TRACKS]
    if any(pred.ids[track].max(initial=0) >= width
           for track, width in zip(TRACKS, widths)):
        raise PoselangError("prediction class ids exceed the label sets")
    L = min(hist_len, K)
    starts = np.arange((K - L) // stride + 1) * stride
    # Step i's class c of a track is bin i * width + c of that track.
    windows = starts[:, None] + np.arange(L)
    offsets = np.arange(len(starts))[:, None]
    steps = np.empty((len(starts), sum(widths)))
    col = 0
    for track, width in zip(TRACKS, widths):
        bins = offsets * width + pred.ids[track][windows]
        steps[:, col:col + width] = np.bincount(
            bins.ravel(), minlength=len(starts) * width).reshape(-1, width)
        col += width
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


def _head_probabilities(hists, net, task: str) -> np.ndarray:
    n_out = len(TASKS[task].names)
    if net.config["n_out"] != n_out:
        raise neural.ShapeMismatch(
            f"{task} head has {net.config['n_out']} outputs, not {n_out}")
    return predict_probabilities(net, [net_inputs(h) for h in hists])


def predict_emotion(hists, net) -> np.ndarray:
    """(n, 25) per-class sigmoid probabilities, one row per histogram
    sequence; an emotion is present at probability >= 0.5."""
    return _head_probabilities(hists, net, "emotion")


def predict_symptom(hists, net) -> np.ndarray:
    """Probability of manic episode (vs major depressive disorder) for each
    histogram sequence."""
    return _head_probabilities(hists, net, "symptom")[:, 0]


# ---------------------------------------------------------------------------
# Training

def train_sequence_net(net, train_inputs, train_targets, spec: neural.TrainSpec,
                       val_inputs, val_targets, patience: int, score_fn):
    """`neural.epochs` with early stopping: after each epoch the net's
    thresholded validation predictions are scored with
    `score_fn(pred, val_targets)`, and training stops once the score has
    not improved for more than `patience` epochs.  Returns (loss curve,
    best validation score); the net holds the best parameters.
    """
    curve = []
    best_score, best_params, stale = -np.inf, None, 0
    for loss in neural.epochs(net, train_inputs, train_targets, spec):
        curve.append(loss)
        score = score_fn(predict_probabilities(net, val_inputs) >= 0.5,
                         val_targets)
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


def train_stage2(train, val, label_sets: dict[str, LabelSet],
                 spec: neural.TrainSpec, task: str, net_kind: str = "recurrent"):
    """Train the `TASKS[task]` head on (histogram sequence, targets) pairs.

    The head is seeded with `spec.seed` plus its task's offset, so each is
    the same whichever else is trained.  Returns the net (holding its
    best-validation parameters) and a history with its loss curve and best
    validation F1.
    """
    if task not in TASKS:
        raise PoselangError(f"unknown stage-2 task {task!r}")
    head = TASKS[task]
    make = neural.RecurrentNet if net_kind == "recurrent" else neural.Conv1DNet
    net = make(histogram_width(label_sets), HIDDEN, n_out=len(head.names),
               seed=spec.seed + head.seed_offset)
    curve, val_f1 = train_sequence_net(
        net, [net_inputs(h) for h, _ in train],
        np.array([y for _, y in train], dtype=np.float64), spec,
        [net_inputs(h) for h, _ in val], np.array([y for _, y in val]),
        PATIENCE, head.score)
    return net, {"loss": curve, "val_f1": val_f1}
