"""End-to-end orchestration: preprocess a dataset, train codebooks and
encoders, build exemplar stores, run stage-1 prediction and stage-2
training, and evaluate."""

from __future__ import annotations

import dataclasses
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bodylang, codebook as cb, emotion, ingest, metrics, neural, ntraj, preprocess, synth
from .core import (ADMISSIBLE_CODEBOOK_SIZES, SUBSETS, TRACKS,
                   BodyLanguageSequence, LabelSet, PipelineConfig,
                   PoselangError, PoseSequence, load_label_sets)


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
    report is stored into `reports` when the clip is loaded.
    """

    def __init__(self, manifest: ingest.DatasetManifest,
                 config: PipelineConfig):
        self._entries = {e.clip_id: e for e in manifest.entries}
        self._root = manifest.path.parent
        self._config = config
        self.reports: dict[str, preprocess.RepairReport] = {}
        self._loaded: dict[str, PoseSequence] = {}

    def __getitem__(self, clip_id: str) -> PoseSequence:
        seq = self._loaded.get(clip_id)
        if seq is None:
            entry = self._entries[clip_id]
            raw = ingest.load_sequence(self._root / entry.path,
                                       entry.frame_rate)
            seq, self.reports[clip_id] = preprocess.preprocess(
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
    sequences: ClipSequences
    gt: dict[str, BodyLanguageSequence]  # window labels as class ids


def load_dataset(manifest_path, config: PipelineConfig) -> Dataset:
    """Read the manifest, label sets and window labels; pose clips are
    ingested later, when `ds.sequences` is first indexed by their id."""
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    label_sets = load_label_sets(root / "labels.csv")
    manifest = ingest.load_manifest(manifest_path, label_sets)
    gt = {e.clip_id: ingest.load_window_labels(
              root / e.window_labels_path, label_sets, e.clip_id)
          for e in manifest.entries if e.window_labels_path}
    return Dataset(manifest=manifest, label_sets=label_sets, config=config,
                   sequences=ClipSequences(manifest, config), gt=gt)


# ---------------------------------------------------------------------------
# Codebooks

def train_codebooks(ds: Dataset, track: str) -> dict[str, cb.Codebook]:
    """One codebook per stream kind from the training split's descriptors.

    Descriptors are pooled over joints and clips; each kind's pool is
    subsampled (seeded) to the configured cap before the restarted k-means.
    """
    config = ds.config
    pools: dict[str, list[np.ndarray]] = {}
    for entry in ds.manifest.split("train"):
        blocks = ntraj.extract_descriptors(
            ds.sequences[entry.clip_id], SUBSETS[track], config.traj_len,
            config.gaps)
        for kind, blk in blocks.items():
            if blk.values.size:
                pools.setdefault(kind, []).append(
                    blk.values.reshape(-1, config.traj_len))
    books: dict[str, cb.Codebook] = {}
    for kind in ntraj.stream_kinds(config.gaps):
        points = np.concatenate(pools[kind])
        cap = config.codebook_sample_cap
        if points.shape[0] > cap:
            rng = np.random.default_rng(
                (config.seed, zlib.crc32(kind.encode("ascii")), 3))
            points = points[rng.choice(points.shape[0], size=cap, replace=False)]
        books[kind] = cb.kmeans_restarts(
            points, config.codebook_size, config.codebook_restarts,
            seed=config.seed, stream_kind=kind)
    return books


# ---------------------------------------------------------------------------
# Encoder training on frame-labeled training windows

ENCODER_SPEC = neural.TrainSpec(learning_rate=0.05, epochs=90)


def train_encoders(ds: Dataset, spec: neural.TrainSpec,
                   clip_ids=None) -> dict[str, neural.ConvEncoder]:
    """One encoder per track, both trained on one render of the pose images
    of every ground-truth-labeled training window, each in its own worker
    process (`neural.train_in_workers`)."""
    ids = clip_ids if clip_ids is not None else [
        e.clip_id for e in ds.manifest.split("train")]
    images, gt = [], []
    for clip_id in ids:
        clip_gt = ds.gt.get(clip_id)
        if clip_gt is None or not clip_gt.n_windows:
            continue
        imgs = bodylang.window_images(ds.sequences[clip_id], ds.config)
        _check_window_count(clip_id, len(imgs), clip_gt.n_windows)
        images.append(imgs)
        gt.append(clip_gt)
    if not images:
        raise ingest.MissingWindowLabels(
            f"{ds.manifest.path}: no training clip has window labels; "
            f"encoder training needs them")
    images = np.concatenate(images)
    return neural.train_in_workers({
        track: (neural.ConvEncoder(in_hw=ds.config.pose_image_size,
                                   in_channels=2,
                                   n_classes=len(ds.label_sets[track]),
                                   seed=spec.seed),
                images, np.concatenate([g.ids[track] for g in gt]), spec)
        for track in TRACKS})


# ---------------------------------------------------------------------------
# Exemplar stores

def build_stores(ds: Dataset, rows, feature_kind: str,
                 models) -> dict[str, bodylang.ExemplarStore]:
    """Per-track stores from exemplar-manifest rows; each clip they name is
    featurized once, at the windows its rows name, with the `models` of
    the tracks its rows name."""
    stride = ds.config.window_stride
    clip_models: dict[str, dict] = {}
    clip_windows: dict[str, set[int]] = {}
    for track, clip_id, start, _ in rows:
        clip_models.setdefault(clip_id, {})[track] = models[track]
        clip_windows.setdefault(clip_id, set()).add(start // stride)
    feats = {}
    for clip_id, m in clip_models.items():
        windows = sorted(clip_windows[clip_id])
        clip_feats = bodylang.clip_features(ds.sequences[clip_id], feature_kind,
                                            ds.config, m, windows=windows)
        feats[clip_id] = {track: dict(zip(windows, f))
                          for track, f in clip_feats.items()}
    stores = {}
    for track in TRACKS:
        lset = ds.label_sets[track]
        picked = [(clip_id, start // stride, cls)
                  for t, clip_id, start, cls in rows if t == track]
        stores[track] = bodylang.ExemplarStore(
            track=track, feature_kind=feature_kind,
            features=np.stack([feats[c][track][w] for c, w, _ in picked]),
            labels=[lset.index(cls) for _, _, cls in picked], label_set=lset,
            provenance=[(c, w) for c, w, _ in picked])
    return stores


# ---------------------------------------------------------------------------
# Stage-1 prediction and evaluation

def predict_split(ds: Dataset, split: str, stores,
                  models) -> dict[str, BodyLanguageSequence]:
    preds = {}
    for entry in ds.manifest.split(split):
        preds[entry.clip_id] = bodylang.predict_sequence(
            ds.sequences[entry.clip_id], stores, ds.config, models)
    return preds


def evaluate_exemplar_knn(ds: Dataset, feature_kind: str, models):
    """Pick exemplars, build stores, predict the test split and score it:
    (window accuracy, video-level scores)."""
    rows = synth.pick_exemplars(ds.manifest, ds.gt, ds.label_sets,
                                ds.config.window_stride, seed=ds.config.seed)
    stores = build_stores(ds, rows, feature_kind, models)
    preds = predict_split(ds, "test", stores, models)
    return window_accuracy(ds, preds), video_multilabel(ds, preds)


def window_accuracy(ds: Dataset, preds) -> dict[str, float]:
    """Window-level accuracy against ground-truth window labels."""
    correct = dict.fromkeys(TRACKS, 0)
    total = 0
    for clip_id, pred in preds.items():
        gt = ds.gt.get(clip_id)
        if gt is None or not gt.n_windows:
            continue
        _check_window_count(clip_id, pred.n_windows, gt.n_windows)
        for track in TRACKS:
            correct[track] += int((pred.ids[track] == gt.ids[track]).sum())
        total += gt.n_windows
    if total == 0:
        return dict.fromkeys((*TRACKS, "overall"), float("nan"))
    out = {track: correct[track] / total for track in TRACKS}
    out["overall"] = sum(correct.values()) / (len(TRACKS) * total)
    return out


def video_multilabel(ds: Dataset, preds) -> dict[str, metrics.MultilabelScores]:
    """Video-level N-hot evaluation per track, matching the manifest labels."""
    out = {}
    for track in TRACKS:
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

def stage2_data(ds: Dataset, split: str, hist_len: int, stride: int, seqs,
                task: str):
    """(histogram sequence, targets) pairs for one split, from `seqs`:
    `ds.gt` or stage-1 predictions, keyed by clip id.  The targets flag
    which of `TASKS[task].names` the manifest line states; every line
    needs both stage-2 channels."""
    names, data = emotion.TASKS[task].names, []
    for e in ds.manifest.split(split):
        hist = emotion.histogram_sequence(ingest.window_labels_of(e, seqs),
                                          ds.label_sets, hist_len, stride)
        for channel in emotion.TASKS:
            if channel not in e.labels:
                raise ingest.UnknownLabel(
                    f"{e.where}: no {channel} channel; stage 2 needs "
                    f"emotion and symptom labels")
        data.append((hist, np.array([n in e.labels[task] for n in names])))
    return data


def stage2_splits(ds: Dataset, hist_len: int, stride: int, seqs, task: str,
                  splits=ingest.SPLITS):
    """`stage2_data` for each of `splits`."""
    return {split: stage2_data(ds, split, hist_len, stride, seqs, task)
            for split in splits}


def _probabilities(net, data, task: str) -> np.ndarray:
    predict = emotion.predict_emotion if task == "emotion" \
        else emotion.predict_symptom
    return predict([hist for hist, _ in data], net)


def predict_stage2(ds: Dataset, net, test_data, task: str):
    """(clip id, emotion probabilities or P(manic episode)) pairs."""
    return list(zip((e.clip_id for e in ds.manifest.split("test")),
                    _probabilities(net, test_data, task)))


def stage2_report(tag: str, net, test, task: str) -> str:
    """The test-split scores `train` prints: the emotion head's
    multi-label table, or the symptom head's accuracy."""
    pred = _probabilities(net, test, task) >= 0.5
    truth = np.array([y for _, y in test])
    if task == "emotion":
        return metrics.scores_table({tag: metrics.multilabel_scores(pred,
                                                                    truth)})
    return f"{tag} test accuracy: " \
           f"{metrics.binary_accuracy(pred, truth[:, 0]):.3f}\n"


# ---------------------------------------------------------------------------
# Ablation sweeps: each returns its CSV lines.

def sweep_codebook_size(ds: Dataset) -> list[str]:
    lines = ["N,track,window_accuracy,video_f1"]
    for n in ADMISSIBLE_CODEBOOK_SIZES:
        sub = dataclasses.replace(
            ds, config=dataclasses.replace(ds.config, codebook_size=n))
        books = {t: train_codebooks(sub, t) for t in TRACKS}
        acc, f1s = evaluate_exemplar_knn(sub, bodylang.FEATURE_NTRAJ_PLUS,
                                         books)
        lines += [f"{n},{t},{acc[t]:.6f},{f1s[t].f1:.6f}" for t in TRACKS]
    return lines


def sweep_histogram_window(ds: Dataset, seqs) -> list[str]:
    """Emotion scores on `seqs` at L=S=1, the configured L/S, and L=S=K."""
    config = ds.config
    lines = ["L,S,accuracy,precision,recall,f1"]
    K = min((g.n_windows for g in ds.gt.values()),
            default=config.emo_hist_len)
    for L, S in ((1, 1), (config.emo_hist_len, config.emo_hist_stride),
                 (K, K)):
        data = stage2_splits(ds, L, S, seqs, "emotion")
        spec = dataclasses.replace(emotion.STAGE2_SPEC, seed=config.seed)
        emo_net, _ = emotion.train_stage2(data["train"], data["val"],
                                          ds.label_sets, spec, "emotion")
        probs = emotion.predict_emotion([h for h, _ in data["test"]], emo_net)
        s = metrics.multilabel_scores(probs >= 0.5,
                                      [y for _, y in data["test"]])
        lines.append(f"{L},{S},{s.accuracy:.6f},{s.precision:.6f},"
                     f"{s.recall:.6f},{s.f1:.6f}")
    return lines


def sweep_data_fraction(ds: Dataset) -> list[str]:
    """ST-Conv window accuracy with encoders trained on 100, 50 and 20 %
    of the training clips."""
    lines = ["fraction,track,window_accuracy"]
    train_ids = [e.clip_id for e in ds.manifest.split("train")]
    spec = dataclasses.replace(ENCODER_SPEC, seed=ds.config.seed)
    accs = {}
    for frac in (1.0, 0.5, 0.2):
        ids = train_ids[:max(1, int(round(frac * len(train_ids))))]
        acc, _ = evaluate_exemplar_knn(ds, bodylang.FEATURE_STCONV,
                                       train_encoders(ds, spec, ids))
        accs[frac] = acc["overall"]
        lines += [f"{frac},{t},{acc[t]:.6f}" for t in TRACKS]
    drop = 100.0 * (accs[1.0] - accs[0.2]) / max(accs[1.0], 1e-12)
    lines.append(f"# drop_percent_at_20={drop:.2f}")
    return lines


def sweep_feature(ds: Dataset, preds_by_kind) -> list[str]:
    """Test-split scores of stored predictions, one block per feature."""
    lines = ["feature,track,window_accuracy,video_f1"]
    for kind, preds in preds_by_kind.items():
        acc = window_accuracy(ds, preds)
        f1s = video_multilabel(ds, preds)
        lines += [f"{kind},{t},{acc[t]:.6f},{f1s[t].f1:.6f}" for t in TRACKS]
    return lines
