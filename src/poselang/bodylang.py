"""Stage 1: sliding-window body-language prediction with an exemplar KNN."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import codebook as cb
from . import ntraj, poseimage
from .core import (LOWER_SUBSET, UPPER_SUBSET, LabelSet, PipelineConfig,
                   PoselangError, joint_subset_view)
from .ingest import MalformedFile

CHI2_EPS = 1e-10

FEATURE_NTRAJ_PLUS = "ntraj+"
FEATURE_STCONV = "stconv"


class SequenceTooShort(PoselangError):
    pass


class KindMismatch(PoselangError):
    pass


class EmptyStore(PoselangError):
    pass


def window_starts(n_frames: int, window_len: int, stride: int) -> np.ndarray:
    """Start frames 0, stride, 2*stride, ... with the window fully inside."""
    if n_frames < window_len:
        raise SequenceTooShort(f"{n_frames} frames < window {window_len}")
    k = (n_frames - window_len) // stride + 1
    return np.arange(k) * stride


def subset_for(track: str):
    return UPPER_SUBSET if track == "upper" else LOWER_SUBSET


def ntraj_window_features(seq, track: str, config: PipelineConfig,
                          codebooks: dict[str, cb.Codebook]) -> np.ndarray:
    """(K, D) bag-of-features histograms for one track's joint subset."""
    starts = window_starts(seq.n_frames, config.window_len, config.window_stride)
    blocks = ntraj.extract_descriptors(
        seq, subset_for(track), config.traj_len, config.gaps, ntraj.NTRAJ_PLUS)
    order = ntraj.stream_kinds(config.gaps, ntraj.NTRAJ_PLUS)
    return cb.window_feature(blocks, codebooks, starts, config.window_len, order)


def window_images(seq, config: PipelineConfig) -> np.ndarray:
    """(K, H, W, 2) pose images of a clip's sliding windows, rendered in
    one batch."""
    starts = window_starts(seq.n_frames, config.window_len, config.window_stride)
    windows = seq.xy[starts[:, None] + np.arange(config.window_len)]
    return poseimage.encode_pose_image(windows, config.pose_image_size)


def stconv_window_features(seq, config: PipelineConfig, encoder) -> np.ndarray:
    """(K, D) L2-normalized conv-encoder embeddings of window pose images."""
    emb = encoder.embed(window_images(seq, config))
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    return emb / np.maximum(norms, 1e-12)


def window_features(seq, feature_kind: str, track: str, config: PipelineConfig,
                    codebooks=None, encoder=None) -> np.ndarray:
    if feature_kind == FEATURE_NTRAJ_PLUS:
        return ntraj_window_features(seq, track, config, codebooks)
    if feature_kind == FEATURE_STCONV:
        return stconv_window_features(seq, config, encoder)
    raise PoselangError(f"unknown feature kind {feature_kind!r}")


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


def _distances(feature: np.ndarray, store: ExemplarStore) -> np.ndarray:
    if feature.shape[-1] != store.features.shape[1]:
        raise KindMismatch(
            f"feature dim {feature.shape[-1]} vs store {store.features.shape[1]}")
    if store.feature_kind == FEATURE_NTRAJ_PLUS:
        return chi_square(feature, store.features)
    return np.linalg.norm(store.features - feature, axis=1)


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


@dataclass
class BodyLanguageSequence:
    """Per-window class ids for both tracks over one clip."""

    clip_id: str
    upper: np.ndarray
    lower: np.ndarray
    upper_conf: np.ndarray
    lower_conf: np.ndarray
    window_len: int
    stride: int

    @property
    def n_windows(self) -> int:
        return len(self.upper)


def predict_sequence(seq, stores: dict[str, ExemplarStore],
                     config: PipelineConfig, codebooks=None,
                     encoders=None) -> BodyLanguageSequence:
    """Classify every sliding window on both tracks.

    `codebooks` and `encoders` are per-track dicts; only the one matching
    each store's feature kind is consulted.
    """
    tracks = {}
    confs = {}
    for track in ("upper", "lower"):
        store = stores[track]
        feats = window_features(
            seq, store.feature_kind, track, config,
            codebooks=(codebooks or {}).get(track),
            encoder=(encoders or {}).get(track))
        ids = np.empty(len(feats), dtype=int)
        cc = np.empty(len(feats))
        for w, f in enumerate(feats):
            ids[w], cc[w] = knn_classify(f, store, config.knn_k)
        tracks[track] = ids
        confs[track] = cc
    return BodyLanguageSequence(
        clip_id=seq.source_id, upper=tracks["upper"], lower=tracks["lower"],
        upper_conf=confs["upper"], lower_conf=confs["lower"],
        window_len=config.window_len, stride=config.window_stride)


def video_nhot(pred: BodyLanguageSequence, label_sets: dict[str, LabelSet],
               min_windows: int = 2) -> dict[str, np.ndarray]:
    """Video-level presence vectors; background is excluded.

    A class counts as present when predicted in at least `min_windows`
    windows, which suppresses single-window flicker.
    """
    out = {}
    for track, ids in (("upper", pred.upper), ("lower", pred.lower)):
        lset = label_sets[track]
        counts = np.bincount(ids, minlength=len(lset))
        present = counts >= min_windows
        present = np.delete(present, lset.background_index)
        out[track] = present.astype(int)
    return out


# ---------------------------------------------------------------------------
# Exemplar manifest and prediction CSV formats

def load_exemplar_manifest(path, sequences, config: PipelineConfig
                           ) -> list[tuple[str, str, int, str]]:
    """Rows of `set,clip_id,window_start,class`.

    Each row must name a clip in `sequences` (clip id -> pose sequence)
    and the start frame of one of that clip's windows under `config`, and
    each set needs at least one row.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 4:
                raise MalformedFile(
                    f"{where}: expected 4 columns set,clip_id,window_start,"
                    f"class, got {len(parts)}")
            track, clip_id, start, cls = parts
            if track not in ("upper", "lower"):
                raise MalformedFile(f"{where}: bad exemplar set {track!r}")
            try:
                start = int(start)
            except ValueError:
                raise MalformedFile(
                    f"{where}: window start {start!r} is not an integer"
                ) from None
            if clip_id not in sequences:
                raise MalformedFile(f"{where}: unknown clip {clip_id!r}")
            if start % config.window_stride:
                raise MalformedFile(
                    f"{where}: window start {start} is not a multiple of "
                    f"window_stride {config.window_stride}")
            starts = window_starts(sequences[clip_id].n_frames,
                                   config.window_len, config.window_stride)
            if not 0 <= start <= starts[-1]:
                raise MalformedFile(
                    f"{where}: window start {start} outside clip {clip_id}, "
                    f"whose windows start at 0..{starts[-1]}")
            rows.append((track, clip_id, start, cls))
    for track in ("upper", "lower"):
        if not any(r[0] == track for r in rows):
            raise MalformedFile(f"{path}: no rows for the {track} set")
    return rows


def save_exemplar_manifest(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for track, clip_id, start, cls in rows:
            fh.write(f"{track},{clip_id},{start},{cls}\n")


def build_store(track: str, feature_kind: str, label_set: LabelSet,
                features: np.ndarray, class_names: list[str],
                provenance: list[tuple[str, int]]) -> ExemplarStore:
    labels = np.array([label_set.index(n) for n in class_names], dtype=int)
    return ExemplarStore(track=track, feature_kind=feature_kind,
                         features=features, labels=labels,
                         label_set=label_set, provenance=provenance)


def prediction_rows(pred: BodyLanguageSequence,
                    label_sets: dict[str, LabelSet]):
    """CSV rows `clip_id,track,window_index,class,confidence`."""
    for track, ids, confs in (("upper", pred.upper, pred.upper_conf),
                              ("lower", pred.lower, pred.lower_conf)):
        names = label_sets[track].names
        for w, (cid, conf) in enumerate(zip(ids, confs)):
            yield f"{pred.clip_id},{track},{w},{names[cid]},{conf:.6f}"
