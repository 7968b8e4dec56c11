"""End-to-end orchestration: preprocess a dataset, train codebooks and
encoders, build exemplar stores, run stage-1 prediction and stage-2
training, and evaluate."""

from __future__ import annotations

import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bodylang, codebook as cb, emotion, ingest, metrics, neural, ntraj, preprocess, synth
from .core import LabelSet, PipelineConfig, PoselangError, PoseSequence


class WindowCountMismatch(PoselangError):
    pass


def _check_window_count(clip_id: str, n_windows: int, n_gt: int) -> None:
    """A clip's windows pair one-to-one with its ground-truth rows."""
    if n_windows != n_gt:
        raise WindowCountMismatch(
            f"clip {clip_id}: {n_windows} windows but {n_gt} ground-truth "
            f"window labels (window_len/window_stride differ from the "
            f"dataset's?)")


class ClipSequences(Mapping):
    """Preprocessed pose sequences keyed by clip id, each ingested the
    first time it is read.

    Stage 2 and evaluation read only labels, so a command pays for the
    keypoint files of exactly the clips it touches.  Each clip's repair
    report is stored into `reports` when the clip is loaded.  The map
    holds no reference to its Dataset, so the two form no cycle.
    """

    def __init__(self, manifest: ingest.DatasetManifest,
                 config: PipelineConfig,
                 reports: dict[str, preprocess.RepairReport]):
        self._entries = {e.clip_id: e for e in manifest.entries}
        self._root = manifest.root
        self._config = config
        self._reports = reports
        self._loaded: dict[str, PoseSequence] = {}

    def __getitem__(self, clip_id: str) -> PoseSequence:
        seq = self._loaded.get(clip_id)
        if seq is None:
            entry = self._entries[clip_id]
            raw = ingest.load_sequence(self._root / entry.path,
                                       entry.frame_rate)
            seq, self._reports[clip_id] = preprocess.preprocess(
                raw, self._config)
            self._loaded[clip_id] = seq
        return seq

    def __contains__(self, clip_id) -> bool:
        return clip_id in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class Dataset:
    """A dataset's manifest, labels and window ground truth, with pose
    sequences that load on first use."""

    manifest: ingest.DatasetManifest
    label_sets: dict[str, LabelSet]
    config: PipelineConfig
    sequences: Mapping[str, PoseSequence]
    reports: dict[str, preprocess.RepairReport]
    gt_windows: dict[str, list[tuple[str, str]]]


def load_dataset(manifest_path, config: PipelineConfig,
                 label_sets: dict[str, LabelSet] | None = None) -> Dataset:
    """Read the manifest, label sets and window labels; pose clips are
    ingested later, when `ds.sequences` is first indexed by their id."""
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    if label_sets is None:
        from .core import load_label_sets
        label_sets = load_label_sets(root / "labels.csv")
    manifest = ingest.load_manifest(manifest_path, label_sets)
    gt_windows = {e.clip_id: ingest.load_window_labels(
                      root / e.window_labels_path)
                  for e in manifest.entries if e.window_labels_path}
    reports: dict[str, preprocess.RepairReport] = {}
    return Dataset(manifest=manifest, label_sets=label_sets, config=config,
                   sequences=ClipSequences(manifest, config, reports),
                   reports=reports, gt_windows=gt_windows)


# ---------------------------------------------------------------------------
# Codebooks

def train_codebooks(ds: Dataset, track: str) -> dict[str, cb.Codebook]:
    """One codebook per stream kind from the training split's descriptors.

    Descriptors are pooled over joints and clips; each kind's pool is
    subsampled (seeded) to the configured cap before the restarted k-means.
    """
    config = ds.config
    subset = bodylang.subset_for(track)
    pools: dict[str, list[np.ndarray]] = {}
    for entry in sorted(ds.manifest.split("train"), key=lambda e: e.clip_id):
        blocks = ntraj.extract_descriptors(
            ds.sequences[entry.clip_id], subset, config.traj_len, config.gaps,
            ntraj.NTRAJ_PLUS)
        for kind, blk in blocks.items():
            if blk.values.size:
                pools.setdefault(kind, []).append(
                    blk.values.reshape(-1, config.traj_len))
    books: dict[str, cb.Codebook] = {}
    for kind in ntraj.stream_kinds(config.gaps, ntraj.NTRAJ_PLUS):
        points = np.concatenate(pools[kind])
        cap = config.codebook_sample_cap
        if points.shape[0] > cap:
            rng = np.random.default_rng(
                (config.seed, zlib.crc32(kind.encode("ascii")), 3))
            points = points[rng.choice(points.shape[0], size=cap, replace=False)]
        # Low-diversity streams (e.g. held postures) can have fewer distinct
        # descriptors than the nominal codebook size; clamp rather than fail.
        n_distinct = np.unique(points, axis=0).shape[0]
        books[kind] = cb.kmeans_restarts(
            points, min(config.codebook_size, n_distinct),
            config.codebook_restarts, seed=config.seed, stream_kind=kind)
    return books


# ---------------------------------------------------------------------------
# Encoder training on frame-labeled training windows

def encoder_training_set(ds: Dataset, track: str,
                         clip_ids=None) -> tuple[np.ndarray, np.ndarray]:
    """Pose images and class ids for every ground-truth-labeled training
    window."""
    lset = ds.label_sets[track]
    track_idx = 0 if track == "upper" else 1
    images, labels = [], []
    ids = clip_ids if clip_ids is not None else sorted(
        e.clip_id for e in ds.manifest.split("train"))
    for clip_id in ids:
        gt = ds.gt_windows.get(clip_id)
        if not gt:
            continue
        imgs = bodylang.window_images(ds.sequences[clip_id], ds.config)
        _check_window_count(clip_id, len(imgs), len(gt))
        images.append(imgs)
        labels.extend(lset.index(g[track_idx]) for g in gt)
    return np.concatenate(images), np.array(labels, dtype=int)


def train_encoder(ds: Dataset, track: str, spec: neural.TrainSpec,
                  clip_ids=None) -> neural.ConvEncoder:
    images, labels = encoder_training_set(ds, track, clip_ids)
    net = neural.ConvEncoder(
        in_hw=ds.config.pose_image_size, in_channels=2,
        n_classes=len(ds.label_sets[track]), seed=spec.seed)
    # Pose images live in [0, 255]; feed the net a [-1, 1] view.
    neural.train(net, images / 127.5 - 1.0, labels, spec)
    return _ScaledEncoder(net)


class _ScaledEncoder:
    """Applies the [0,255] -> [-1,1] input map in front of a ConvEncoder."""

    def __init__(self, net: neural.ConvEncoder):
        self.net = net

    def embed(self, images):
        return self.net.embed(np.asarray(images) / 127.5 - 1.0)

    @property
    def inner(self):
        return self.net


# ---------------------------------------------------------------------------
# Exemplar stores

def build_stores(ds: Dataset, rows, feature_kind: str,
                 codebooks=None, encoders=None) -> dict[str, bodylang.ExemplarStore]:
    """Turn exemplar-manifest rows into per-track stores.

    Window features are computed once per referenced clip and indexed by
    window start frame.
    """
    config = ds.config
    feats_cache: dict[tuple[str, str], np.ndarray] = {}

    def features_for(clip_id, track):
        key = (clip_id, track)
        if key not in feats_cache:
            feats_cache[key] = bodylang.window_features(
                ds.sequences[clip_id], feature_kind, track, config,
                codebooks=(codebooks or {}).get(track),
                encoder=(encoders or {}).get(track))
        return feats_cache[key]

    stores = {}
    for track in ("upper", "lower"):
        track_rows = [r for r in rows if r[0] == track]
        feats, names, prov = [], [], []
        for _, clip_id, start, cls in track_rows:
            w = start // config.window_stride
            feats.append(features_for(clip_id, track)[w])
            names.append(cls)
            prov.append((clip_id, w))
        stores[track] = bodylang.build_store(
            track, feature_kind, ds.label_sets[track],
            np.stack(feats), names, prov)
    return stores


# ---------------------------------------------------------------------------
# Stage-1 prediction and evaluation

def predict_split(ds: Dataset, split: str, stores, codebooks=None,
                  encoders=None) -> dict[str, bodylang.BodyLanguageSequence]:
    preds = {}
    for entry in sorted(ds.manifest.split(split), key=lambda e: e.clip_id):
        preds[entry.clip_id] = bodylang.predict_sequence(
            ds.sequences[entry.clip_id], stores, ds.config,
            codebooks=codebooks, encoders=encoders)
    return preds


def window_accuracy(ds: Dataset, preds) -> dict[str, float]:
    """Window-level accuracy against ground-truth window labels."""
    correct = {"upper": 0, "lower": 0}
    total = 0
    for clip_id, pred in preds.items():
        gt = ds.gt_windows.get(clip_id)
        if not gt:
            continue
        for track, ids in (("upper", pred.upper), ("lower", pred.lower)):
            _check_window_count(clip_id, len(ids), len(gt))
            lset = ds.label_sets[track]
            idx = 0 if track == "upper" else 1
            correct[track] += sum(lset.names[c] == g[idx]
                                  for c, g in zip(ids, gt))
        total += len(gt)
    if total == 0:
        return {"upper": float("nan"), "lower": float("nan"), "overall": float("nan")}
    out = {track: correct[track] / total for track in correct}
    out["overall"] = (correct["upper"] + correct["lower"]) / (2 * total)
    return out


def video_multilabel(ds: Dataset, preds) -> dict[str, metrics.MultilabelScores]:
    """Video-level N-hot evaluation per track, matching the manifest labels."""
    out = {}
    for track in ("upper", "lower"):
        lset = ds.label_sets[track]
        non_bg = [n for i, n in enumerate(lset.names)
                  if i != lset.background_index]
        pred_sets, truth_sets = [], []
        for clip_id in sorted(preds):
            nhot = bodylang.video_nhot(preds[clip_id], ds.label_sets,
                                       ds.config.min_windows)[track]
            pred_sets.append({i for i in range(len(non_bg)) if nhot[i]})
            truth = ds.manifest.by_id(clip_id).labels.get(track, ())
            truth_sets.append({non_bg.index(n) for n in truth})
        out[track] = metrics.multilabel_scores(pred_sets, truth_sets)
    return out


# ---------------------------------------------------------------------------
# Stage 2

def gt_sequence(ds: Dataset, clip_id: str) -> bodylang.BodyLanguageSequence:
    """Ground-truth window labels wrapped as a prediction sequence."""
    gt = ds.gt_windows[clip_id]
    upper = np.array([ds.label_sets["upper"].index(up) for up, _ in gt])
    lower = np.array([ds.label_sets["lower"].index(lo) for _, lo in gt])
    ones = np.ones(len(gt))
    return bodylang.BodyLanguageSequence(
        clip_id=clip_id, upper=upper, lower=lower, upper_conf=ones,
        lower_conf=ones, window_len=ds.config.window_len,
        stride=ds.config.window_stride)


def emotion_nhot(entry: ingest.ManifestEntry) -> np.ndarray:
    names = synth.emotion_names()
    vec = np.zeros(emotion.N_EMOTIONS, dtype=int)
    for name in entry.labels.get("emotion", ()):
        vec[names.index(name)] = 1
    return vec


def symptom_label(entry: ingest.ManifestEntry) -> int:
    return int(entry.labels.get("symptom", ("MDD",))[0] == "ME")


def stage2_data(ds: Dataset, split: str, hist_len: int, stride: int,
                preds=None):
    """(HistogramSequence, emotion nhot, symptom) triples for one split.

    Uses stage-1 predictions when given, otherwise ground-truth sequences.
    """
    data = []
    for entry in sorted(ds.manifest.split(split), key=lambda e: e.clip_id):
        if preds is not None:
            seq_pred = preds[entry.clip_id]
        else:
            seq_pred = gt_sequence(ds, entry.clip_id)
        hist = emotion.histogram_sequence(seq_pred, ds.label_sets,
                                          hist_len, stride)
        data.append((hist, emotion_nhot(entry), symptom_label(entry)))
    return data


def evaluate_stage2_emotion(net, data) -> metrics.MultilabelScores:
    preds = [emotion.predict_emotion(h, net).nhot for h, _, _ in data]
    truth = [e for _, e, _ in data]
    return metrics.multilabel_scores(preds, truth)


def evaluate_stage2_symptom(net, data) -> float:
    preds = [int(emotion.predict_symptom(h, net) >= 0.5) for h, _, _ in data]
    truth = [s for _, _, s in data]
    return metrics.binary_accuracy(preds, truth)
