"""Multi-label and binary evaluation, example-based (per-sample averaged)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PoselangError


class LengthMismatch(PoselangError):
    pass


@dataclass
class MultilabelScores:
    accuracy: float
    precision: float
    recall: float
    f1: float


def _as_sets(samples):
    out = []
    for s in samples:
        if isinstance(s, (set, frozenset)):
            out.append(frozenset(s))
        else:
            arr = np.asarray(s)
            out.append(frozenset(np.flatnonzero(arr).tolist()))
    return out


def multilabel_scores(pred, truth) -> MultilabelScores:
    """Per-sample Jaccard accuracy, precision, recall, and F1, averaged.

    Samples are label sets or N-hot vectors.  Empty prediction and empty
    truth score 1 on everything; an empty side against a nonempty one
    scores 0.
    """
    pred, truth = _as_sets(pred), _as_sets(truth)
    if len(pred) != len(truth):
        raise LengthMismatch(f"{len(pred)} predictions vs {len(truth)} truths")
    if not pred:
        raise LengthMismatch("no samples")
    rows = []
    for p, t in zip(pred, truth):
        inter, union = len(p & t), len(p | t)
        if union == 0:
            rows.append((1.0, 1.0, 1.0, 1.0))
            continue
        prec = inter / len(p) if p else 0.0
        rec = inter / len(t) if t else 0.0
        f1 = 2 * prec * rec / (prec + rec) if (prec + rec) > 0 else 0.0
        rows.append((inter / union, prec, rec, f1))
    return MultilabelScores(*(float(np.mean(col)) for col in zip(*rows)))


def _paired(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise LengthMismatch(f"{pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise LengthMismatch("no samples")
    return pred, truth


def binary_accuracy(pred, truth) -> float:
    """Fraction of exact matches."""
    pred, truth = _paired(pred, truth)
    return float((pred == truth).mean())


def binary_f1(pred, truth) -> float:
    """F1 of the positive class (label 1); 0 when there is no true positive."""
    pred, truth = _paired(pred, truth)
    pos, true = pred == 1, truth == 1
    tp = int((pos & true).sum())
    if tp == 0:
        return 0.0
    prec, rec = tp / int(pos.sum()), tp / int(true.sum())
    return 2 * prec * rec / (prec + rec)


def scores_csv(rows: dict[str, MultilabelScores]) -> str:
    """Metric table in Acc/Prec/Recall/F1 column order."""
    lines = ["name,accuracy,precision,recall,f1"]
    for name in rows:
        s = rows[name]
        lines.append(f"{name},{s.accuracy:.6f},{s.precision:.6f},"
                     f"{s.recall:.6f},{s.f1:.6f}")
    return "\n".join(lines) + "\n"


def scores_table(rows: dict[str, MultilabelScores]) -> str:
    """Aligned text rendering of the same table."""
    width = max([len(n) for n in rows] + [6])
    lines = [f"{'name':<{width}}  {'Acc.':>7} {'Prec.':>7} {'Recall':>7} {'F1':>7}"]
    for name, s in rows.items():
        lines.append(f"{name:<{width}}  {s.accuracy:7.3f} {s.precision:7.3f} "
                     f"{s.recall:7.3f} {s.f1:7.3f}")
    return "\n".join(lines) + "\n"
