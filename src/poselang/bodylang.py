"""Stage 1: sliding-window body-language prediction with an exemplar KNN."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import codebook as cb
from . import ntraj, poseimage
from .core import (SUBSETS, TRACKS, BodyLanguageSequence, LabelSet,
                   PipelineConfig, PoselangError, data_lines)
from .ingest import MalformedFile

CHI2_EPS = 1e-10

FEATURE_NTRAJ_PLUS = "ntraj+"
FEATURE_STCONV = "stconv"


class KindMismatch(PoselangError):
    pass


class EmptyStore(PoselangError):
    pass


def window_starts(n_frames: int, window_len: int, stride: int) -> np.ndarray:
    """Start frames 0, stride, 2*stride, ... with the window fully inside."""
    if n_frames < window_len:
        raise ntraj.SequenceTooShort(
            f"{n_frames} frames < window {window_len}")
    k = (n_frames - window_len) // stride + 1
    return np.arange(k) * stride


def window_images(seq, config: PipelineConfig) -> np.ndarray:
    """(K, H, W, 2) pose images of a clip's sliding windows, rendered in
    one batch and mapped from [0, 255] to the encoder's [-1, 1] input."""
    starts = window_starts(seq.n_frames, config.window_len, config.window_stride)
    windows = seq.xy[starts[:, None] + np.arange(config.window_len)]
    return poseimage.encode_pose_image(
        windows, config.pose_image_size) / 127.5 - 1.0


def clip_features(seq, feature_kind: str, config: PipelineConfig,
                  models, windows=None) -> dict[str, np.ndarray]:
    """{track: (K, D) window features} for each track in `models`, which
    maps a track to its codebooks (NTraj+: bag-of-features histograms of
    the track's joints) or its encoder (ST-Conv: L2-normalized embeddings
    of the clip's pose images, rendered once for every track).

    `windows` (indices into the clip's sliding windows) keeps only those
    rows.  NTraj+ then quantizes only the descriptors those windows cover;
    ST-Conv still embeds every window, so that each embedding keeps the
    bits of the full-clip batch.
    """
    if feature_kind == FEATURE_NTRAJ_PLUS:
        starts = window_starts(seq.n_frames, config.window_len,
                               config.window_stride)
        if windows is not None:
            starts = starts[windows]
        order = ntraj.stream_kinds(config.gaps)
        return {track: cb.window_feature(
                    ntraj.extract_descriptors(seq, SUBSETS[track],
                                              config.traj_len, config.gaps),
                    books, starts, config.window_len, order)
                for track, books in models.items()}
    if feature_kind != FEATURE_STCONV:
        raise PoselangError(f"unknown feature kind {feature_kind!r}")
    images = window_images(seq, config)
    embs = {track: encoder.embed(images) for track, encoder in models.items()}
    rows = slice(None) if windows is None else windows
    return {track: (emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True),
                                     1e-12))[rows]
            for track, emb in embs.items()}


def window_features(seq, feature_kind: str, track: str, config: PipelineConfig,
                    codebooks=None, encoder=None) -> np.ndarray:
    """One track's `clip_features`, from its codebooks or its encoder."""
    model = codebooks if feature_kind == FEATURE_NTRAJ_PLUS else encoder
    return clip_features(seq, feature_kind, config, {track: model})[track]


@dataclass
class ExemplarStore:
    """Labeled window features serving as KNN data points for one track."""

    track: str
    feature_kind: str
    features: np.ndarray          # (n, D)
    labels: np.ndarray            # (n,) class ids
    label_set: LabelSet
    provenance: list[tuple[str, int]] = field(default_factory=list)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=int)
        counts = np.bincount(self.labels, minlength=len(self.label_set))
        for class_id, n in enumerate(counts):
            if class_id == self.label_set.background_index:
                continue
            if n and not (5 <= n <= 7):
                warnings.warn(
                    f"{self.track}/{self.label_set.names[class_id]}: "
                    f"{n} exemplars outside the 5..7 range")

    def __len__(self) -> int:
        return self.features.shape[0]


def chi_square(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chi-square histogram distance, broadcast over rows of b."""
    diff = a - b
    return (diff * diff / (a + b + CHI2_EPS)).sum(axis=-1)


# Exemplar-distance elements per chunk of windows in `classify_windows`
# (at least one window): each broadcast temporary stays within 256 KB, so
# it stays in cache; larger chunks measured slower than one window at a time.
DISTANCE_CHUNK = 1 << 15


def _distances(feature: np.ndarray, store: ExemplarStore) -> np.ndarray:
    """Distances from `feature` (..., D) to every exemplar: (..., n)."""
    if feature.shape[-1] != store.features.shape[1]:
        raise KindMismatch(
            f"feature dim {feature.shape[-1]} vs store {store.features.shape[1]}")
    if store.feature_kind == FEATURE_NTRAJ_PLUS:
        return chi_square(feature, store.features)
    return np.linalg.norm(store.features - feature, axis=-1)


def knn_classify(feature: np.ndarray, store: ExemplarStore,
                 k: int) -> tuple[int, float]:
    """Majority vote among the k nearest exemplars.

    Neighbor ties at the k-th distance resolve by exemplar index; class
    ties resolve by smallest mean distance, then lowest class id.
    Confidence is 1/(1 + mean distance of the winning class's neighbors).
    """
    if len(store) == 0:
        raise EmptyStore(store.track)
    dists = _distances(np.asarray(feature, dtype=np.float64), store)
    k = min(k, len(store))
    nearest = np.argsort(dists, kind="stable")[:k]
    votes: dict[int, list[float]] = {}
    for idx in nearest:
        votes.setdefault(int(store.labels[idx]), []).append(float(dists[idx]))
    best = None
    for class_id, ds in votes.items():
        key = (-len(ds), sum(ds) / len(ds), class_id)
        if best is None or key < best[0]:
            best = (key, class_id, ds)
    _, class_id, ds = best
    confidence = 1.0 / (1.0 + sum(ds) / len(ds))
    return class_id, confidence


def classify_windows(features: np.ndarray, store: ExemplarStore,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
    """`knn_classify` of every row of `features`, as (class ids,
    confidences), from one distance matrix.

    Each row's distances, neighbor order, per-class sums (added in
    neighbor order) and tie rules are those of `knn_classify`.
    """
    if len(store) == 0:
        raise EmptyStore(store.track)
    features = np.asarray(features, dtype=np.float64)
    step = max(1, DISTANCE_CHUNK // store.features.size)
    dists = np.empty((len(features), len(store)))
    for lo in range(0, len(features), step):
        dists[lo:lo + step] = _distances(features[lo:lo + step, None, :], store)
    k = min(k, len(store))
    nearest = np.argsort(dists, axis=1, kind="stable")[:, :k]
    near_labels = store.labels[nearest]
    near_dists = np.take_along_axis(dists, nearest, axis=1)
    rows = np.arange(len(features))
    n_classes = int(store.labels.max()) + 1
    counts = np.zeros((len(features), n_classes), dtype=int)
    sums = np.zeros((len(features), n_classes))
    for j in range(k):
        counts[rows, near_labels[:, j]] += 1
        sums[rows, near_labels[:, j]] += near_dists[:, j]
    means = sums / np.maximum(counts, 1)
    tied = counts == counts.max(axis=1, keepdims=True)
    ids = np.argmin(np.where(tied, means, np.inf), axis=1)
    return ids, 1.0 / (1.0 + means[rows, ids])


def predict_sequence(seq, stores: dict[str, ExemplarStore],
                     config: PipelineConfig, models) -> BodyLanguageSequence:
    """Classify every sliding window on every track; `models` maps each
    track to the feature model of its store's kind (see `clip_features`)."""
    feats = clip_features(seq, stores[TRACKS[0]].feature_kind, config, models)
    pred = BodyLanguageSequence(clip_id=seq.source_id, ids={}, conf={})
    for track in TRACKS:
        pred.ids[track], pred.conf[track] = classify_windows(
            feats[track], stores[track], config.knn_k)
    return pred


def video_nhot(pred: BodyLanguageSequence, label_sets: dict[str, LabelSet],
               min_windows: int = 2) -> dict[str, np.ndarray]:
    """Video-level presence vectors; background is excluded.

    A class counts as present when predicted in at least `min_windows`
    windows, which suppresses single-window flicker.
    """
    out = {}
    for track in TRACKS:
        lset = label_sets[track]
        counts = np.bincount(pred.ids[track], minlength=len(lset))
        present = counts >= min_windows
        present = np.delete(present, lset.background_index)
        out[track] = present.astype(int)
    return out


# ---------------------------------------------------------------------------
# Exemplar manifest

def load_exemplar_manifest(path, sequences, config: PipelineConfig,
                           label_sets: dict[str, LabelSet]
                           ) -> list[tuple[str, str, int, str]]:
    """Rows of `set,clip_id,window_start,class`.

    Each row must name a clip in `sequences` (clip id -> pose sequence),
    the start frame of one of that clip's windows under `config` and a
    class of its set's label set, and each set needs at least one row.
    """
    rows = []
    for lineno, line in data_lines(path):
        where = f"{path}:{lineno}"
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise MalformedFile(f"{where}: expected 4 columns set,clip_id,"
                                f"window_start,class, got {len(parts)}")
        track, clip_id, start, cls = parts
        if track not in TRACKS:
            raise MalformedFile(f"{where}: bad exemplar set {track!r}")
        if cls not in label_sets[track].names:
            raise MalformedFile(f"{where}: unknown {track} class {cls!r}")
        try:
            start = int(start)
        except ValueError:
            raise MalformedFile(f"{where}: window start {start!r} is not an "
                                "integer") from None
        if clip_id not in sequences:
            raise MalformedFile(f"{where}: unknown clip {clip_id!r}")
        if start % config.window_stride:
            raise MalformedFile(
                f"{where}: window start {start} is not a multiple of "
                f"window_stride {config.window_stride}")
        starts = window_starts(sequences[clip_id].n_frames, config.window_len,
                               config.window_stride)
        if not 0 <= start <= starts[-1]:
            raise MalformedFile(
                f"{where}: window start {start} outside clip {clip_id}, "
                f"whose windows start at 0..{starts[-1]}")
        rows.append((track, clip_id, start, cls))
    for track in TRACKS:
        if not any(r[0] == track for r in rows):
            raise MalformedFile(f"{path}: no rows for the {track} set")
    return rows


def save_exemplar_manifest(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for track, clip_id, start, cls in rows:
            fh.write(f"{track},{clip_id},{start},{cls}\n")
