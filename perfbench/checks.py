"""Output checks made against the generator's ground truth, brute-force
oracles and properties of the method, never against stored copies of
earlier output.

Each check returns a list of problems, each a ``(kind, message)`` pair:
``"output"`` for malformed or wrong outputs, ``"quality"`` for a quality
figure below its floor.  An empty list means the outputs passed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Window grid and video-label rule of the default PipelineConfig; no
# workload overrides them.
WINDOW_LEN = 6
WINDOW_STRIDE = 3
KNN_K = 3
MIN_WINDOWS = 2
CHI2_EPS = 1e-10
TRACKS = ("upper", "lower")
EMOTION_NAMES = [f"e{i:02d}" for i in range(24)] + ["background"]

# At benchmark sizes a stage-2 net can end on its label prior, which is the
# baseline itself, and its test score then lands a few of the 32 test clips
# either side of the baseline's.  The floor allows three clips' worth; a net
# that learned less than the prior, or nothing, falls well below it.
STAGE2_SLACK = 0.1

# Printed figures carry three decimals.
PRINT_TOLERANCE = 0.0005 + 1e-9
# Stored confidences carry six decimals.
CONF_TOLERANCE = 0.5e-6 + 1e-9


class Problems(list):
    def output(self, message: str) -> None:
        self.append(("output", message))

    def quality(self, message: str) -> None:
        self.append(("quality", message))


# ---------------------------------------------------------------------------
# The generated dataset, read without the program

@dataclass
class Clip:
    clip_id: str
    path: str
    frame_rate: float
    split: str
    n_frames: int
    labels: dict[str, tuple[str, ...]]
    gt_windows: list[tuple[str, str]]


@dataclass
class GeneratedData:
    label_names: dict[str, tuple[str, ...]]  # background last
    clips: dict[str, Clip]

    def split(self, name: str) -> list[Clip]:
        return sorted((c for c in self.clips.values() if c.split == name),
                      key=lambda c: c.clip_id)


_FRAME_INDEX = re.compile(r"(\d+)")


def read_dataset(root: Path) -> GeneratedData:
    names: dict[str, list[str]] = {"upper": [], "lower": []}
    for line in (root / "labels.csv").read_text().splitlines():
        if line.strip():
            track, name = line.split(",")
            names[track].append(name)
    label_names = {t: tuple(names[t]) + ("background",) for t in TRACKS}
    clips = {}
    for line in (root / "manifest.csv").read_text().splitlines():
        if not line.strip():
            continue
        clip_id, path, fps, split, label_field, gt_path = line.split(",")
        labels = {}
        for channel in label_field.split(";"):
            task, _, values = channel.partition(":")
            labels[task] = tuple(v for v in values.split("|") if v)
        indices = [int(_FRAME_INDEX.findall(p.stem)[-1])
                   for p in (root / path).glob("*.json")]
        gt = []
        for row in (root / gt_path).read_text().splitlines():
            if row.strip():
                _, up, lo = row.split(",")
                gt.append((up, lo))
        clips[clip_id] = Clip(clip_id, path, float(fps), split,
                              max(indices) - min(indices) + 1, labels, gt)
    return GeneratedData(label_names, clips)


def n_windows(n_frames: int) -> int:
    return (n_frames - WINDOW_LEN) // WINDOW_STRIDE + 1


# ---------------------------------------------------------------------------
# Scores, written independently of poselang.metrics

def example_f1(pred_sets, truth_sets) -> float:
    """Example-based F1 averaged over samples; empty against empty is 1."""
    total = 0.0
    for p, t in zip(pred_sets, truth_sets):
        p, t = set(p), set(t)
        if not p and not t:
            total += 1.0
            continue
        inter = len(p & t)
        prec = inter / len(p) if p else 0.0
        rec = inter / len(t) if t else 0.0
        total += 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
    return total / len(pred_sets)


def _close(a: float, b: float, tol: float = PRINT_TOLERANCE) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# Stage 1

def read_predictions(path: Path, data: GeneratedData, clips: list[Clip],
                     problems: Problems) -> dict[tuple[str, str], list]:
    """Rows by (clip, track) as (class name, confidence), after checking
    the row count, order, class names and confidence range."""
    rows: dict[tuple[str, str], list] = {}
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        clip_id, track, w, cls, conf = line.split(",")
        entry = rows.setdefault((clip_id, track), [])
        if int(w) != len(entry):
            problems.output(f"{path.name}: {clip_id}/{track} window {w} "
                            f"out of order")
        if track not in TRACKS or cls not in data.label_names[track]:
            problems.output(f"{path.name}: unknown class {track}/{cls}")
        conf = float(conf)
        if not 0.0 < conf <= 1.0:
            problems.output(f"{path.name}: confidence {conf} outside (0, 1]")
        entry.append((cls, conf))
    expected = {(c.clip_id, t) for c in clips for t in TRACKS}
    if set(rows) != expected:
        problems.output(f"{path.name}: predicted clips/tracks differ from "
                        f"the split")
    for clip in clips:
        want = n_windows(clip.n_frames)
        if len(clip.gt_windows) != want:
            problems.output(f"{clip.clip_id}: {len(clip.gt_windows)} "
                            f"ground-truth windows, want {want}")
        for track in TRACKS:
            got = len(rows.get((clip.clip_id, track), []))
            if got != want:
                problems.output(f"{path.name}: {clip.clip_id}/{track} has "
                                f"{got} rows, want {want}")
    return rows


def stage1_scores(rows, data: GeneratedData, clips: list[Clip]) -> dict:
    """Window accuracy per track and overall, and video F1 per track."""
    correct = {t: 0 for t in TRACKS}
    total = 0
    f1 = {}
    for i, track in enumerate(TRACKS):
        pred_sets, truth_sets = [], []
        for clip in clips:
            names = [cls for cls, _ in rows.get((clip.clip_id, track), [])]
            k = min(len(names), len(clip.gt_windows))
            correct[track] += sum(names[w] == clip.gt_windows[w][i]
                                  for w in range(k))
            if i == 0:
                total += k
            present = {n for n in set(names) if n != "background"
                       and names.count(n) >= MIN_WINDOWS}
            pred_sets.append(present)
            truth_sets.append(set(clip.labels.get(track, ())))
        f1[track] = example_f1(pred_sets, truth_sets)
    acc = {t: correct[t] / total for t in TRACKS}
    acc["overall"] = (correct["upper"] + correct["lower"]) / (2 * total)
    return {"accuracy": acc, "f1": f1}


def majority_share(data: GeneratedData, clips: list[Clip]) -> float:
    """Window accuracy of always answering each track's most common
    ground-truth class: the chance level the classifier must clear."""
    shares = []
    for i, _ in enumerate(TRACKS):
        labels = [w[i] for c in clips for w in c.gt_windows]
        shares.append(max(labels.count(n) for n in set(labels)) / len(labels))
    return sum(shares) / len(shares)


_EVAL_ACC = re.compile(r"window accuracy: upper ([\d.]+) lower ([\d.]+) "
                       r"overall ([\d.]+)")


def check_eval_output(text: str, scores: dict, problems: Problems) -> None:
    match = _EVAL_ACC.search(text)
    if match is None:
        problems.output("eval printed no window accuracy")
        return
    for key, printed in zip(("upper", "lower", "overall"), match.groups()):
        if not _close(scores["accuracy"][key], float(printed)):
            problems.output(f"eval prints {key} accuracy {printed}, outputs "
                            f"give {scores['accuracy'][key]:.6f}")
    for track in TRACKS:
        row = next((line for line in text.splitlines()
                    if f"KNN {track} set" in line), None)
        if row is None:
            problems.output(f"eval printed no {track} video scores")
        elif not _close(scores["f1"][track], float(row.split()[-1])):
            problems.output(f"eval prints {track} F1 {row.split()[-1]}, "
                            f"outputs give {scores['f1'][track]:.6f}")


def brute_force_knn(query: np.ndarray, features: np.ndarray,
                    labels: np.ndarray, metric: str, k: int):
    """The documented vote, one exemplar at a time.

    Neighbours at equal distance are taken in exemplar order; the class
    with most neighbours wins, ties going to the smaller mean distance and
    then the lower class id.  Confidence is 1 / (1 + that mean distance).
    """
    dists = []
    for idx in range(features.shape[0]):
        row = features[idx]
        if metric == "chi2":
            diff = query - row
            d = float((diff * diff / (query + row + CHI2_EPS)).sum())
        else:
            d = math.sqrt(float(((row - query) ** 2).sum()))
        dists.append((d, idx))
    nearest = sorted(dists)[:k]
    votes: dict[int, list[float]] = {}
    for d, idx in nearest:
        votes.setdefault(int(labels[idx]), []).append(d)
    *_, class_id = min((-len(ds), sum(ds) / len(ds), c)
                       for c, ds in votes.items())
    mean = sum(votes[class_id]) / len(votes[class_id])
    return class_id, 1.0 / (1.0 + mean)


def check_knn_oracle(workdir: Path, feature_kind: str, rows,
                     clips: list[Clip], data: GeneratedData,
                     problems: Problems) -> None:
    """Re-vote every window of three fixed test clips (first, middle, last
    by id) against the stored exemplar features."""
    import poselang.cli as cli
    from poselang import bodylang, ingest, preprocess
    from poselang.core import PipelineConfig

    config = PipelineConfig.from_file(workdir / "config.txt")
    ntraj_plus = feature_kind == "ntraj+"
    codebooks = cli._load_codebooks(workdir, config) if ntraj_plus else {}
    encoders = {} if ntraj_plus else cli._load_encoders(workdir, config)
    metric = "chi2" if ntraj_plus else "euclidean"
    stores = {t: np.load(workdir / "exemplars" / feature_kind / f"{t}.npz")
              for t in TRACKS}
    for clip in (clips[0], clips[len(clips) // 2], clips[-1]):
        raw = ingest.load_sequence(workdir / "dataset" / clip.path,
                                   clip.frame_rate)
        seq, _ = preprocess.preprocess(raw, config)
        for track in TRACKS:
            feats = bodylang.window_features(
                seq, feature_kind, track, config,
                codebooks=codebooks.get(track), encoder=encoders.get(track))
            for w, query in enumerate(feats):
                class_id, conf = brute_force_knn(
                    query, stores[track]["features"], stores[track]["labels"],
                    metric, KNN_K)
                want = data.label_names[track][class_id]
                got_cls, got_conf = rows[(clip.clip_id, track)][w]
                if got_cls != want or not _close(got_conf, conf,
                                                 CONF_TOLERANCE):
                    problems.output(
                        f"k-NN oracle: {clip.clip_id}/{track} window {w} "
                        f"predicted {got_cls} {got_conf:.6f}, brute force "
                        f"gives {want} {conf:.6f}")


def check_codebooks(workdir: Path, kinds: list[str],
                    problems: Problems) -> None:
    from poselang import codebook
    from poselang.core import PipelineConfig

    max_size = PipelineConfig.from_file(workdir / "config.txt").codebook_size
    for track in TRACKS:
        paths = sorted((workdir / "codebooks" / track).glob("*.cbk"))
        if sorted(p.stem for p in paths) != sorted(kinds):
            problems.output(f"{track} codebooks {[p.stem for p in paths]}, "
                            f"want {kinds}")
        for path in paths:
            centroids = codebook.load_codebook(path).centroids
            n = centroids.shape[0]
            if not np.all(np.isfinite(centroids)):
                problems.output(f"{track}/{path.name}: non-finite centroid")
            if np.unique(centroids, axis=0).shape[0] != n:
                problems.output(f"{track}/{path.name}: repeated centroids")
            if not 1 <= n <= max_size:
                problems.output(f"{track}/{path.name}: {n} centroids, "
                                f"configured {max_size}")


def check_stage1(workdir: Path, feature_kind: str, splits, eval_output: str,
                 problems: Problems, min_gain: float) -> dict:
    """Every prediction file, the k-NN oracle, and test quality against the
    printed figures and the majority-class level."""
    data = read_dataset(workdir / "dataset")
    test_rows = None
    for split in splits:
        clips = data.split(split)
        rows = read_predictions(
            workdir / "predictions" / feature_kind / f"{split}.csv",
            data, clips, problems)
        if split == "test":
            test_rows = rows
    test = data.split("test")
    scores = stage1_scores(test_rows, data, test)
    check_eval_output(eval_output, scores, problems)
    if not problems:
        check_knn_oracle(workdir, feature_kind, test_rows, test, data,
                         problems)
    chance = majority_share(data, test)
    if scores["accuracy"]["overall"] < chance + min_gain:
        problems.quality(
            f"window accuracy {scores['accuracy']['overall']:.3f} is not "
            f"{min_gain} above the majority-class level {chance:.3f}")
    return {"window_accuracy": scores["accuracy"]["overall"],
            "video_f1": (scores["f1"]["upper"] + scores["f1"]["lower"]) / 2,
            "majority_window_share": chance}


# ---------------------------------------------------------------------------
# Stage 2

def _train_figure(text: str, task: str) -> float | None:
    if task == "symptom":
        match = re.search(r"test accuracy: ([\d.]+)", text)
        return float(match.group(1)) if match else None
    row = next((line for line in text.splitlines()
                if line.startswith("emotion_")), None)
    return float(row.split()[-1]) if row else None


def check_stage2(workdir: Path, nets, train_outputs: dict,
                 problems: Problems) -> dict:
    """Emotion and symptom predictions of each net on the test split,
    scored against the manifest, compared with what `train` printed and
    with the constant predictors fitted on the training split."""
    data = read_dataset(workdir / "dataset")
    test, train = data.split("test"), data.split("train")
    truth_emo = [set(c.labels["emotion"]) for c in test]
    truth_sym = [c.labels["symptom"][0] for c in test]

    # Constant predictors from the training split.
    train_sym = [c.labels["symptom"][0] for c in train]
    majority = max(sorted(set(train_sym)), key=train_sym.count)
    base_acc = sum(s == majority for s in truth_sym) / len(test)
    constant = {e for e in EMOTION_NAMES
                if 2 * sum(e in c.labels["emotion"] for c in train) > len(train)}
    base_f1 = example_f1([constant] * len(test), truth_emo)

    out = {"symptom_majority_accuracy": base_acc,
           "emotion_constant_f1": base_f1}
    for net in nets:
        tag = f"{net}_gt_L7_S3"
        emo_rows = _stage2_rows(workdir / "predictions" / f"emotion_{tag}.csv",
                                test, problems)
        sym_rows = _stage2_rows(workdir / "predictions" / f"symptom_{tag}.csv",
                                test, problems)
        before = len(problems)
        pred_emo = []
        for row in emo_rows:
            names = set(n for n in row[2].split("|") if n) if len(row) > 2 else set()
            if not names <= set(EMOTION_NAMES) or row[1] != "emotion":
                problems.output(f"emotion_{tag}: bad row {row}")
            pred_emo.append(names)
        pred_sym = []
        for row in sym_rows:
            label, p = row[2], float(row[3])
            if row[1] != "symptom" or label not in ("ME", "MDD") \
                    or not 0.0 <= p <= 1.0 or (label == "ME") != (p >= 0.5):
                problems.output(f"symptom_{tag}: bad row {row}")
            pred_sym.append(label)
        if len(problems) > before:
            continue
        f1 = example_f1(pred_emo, truth_emo)
        acc = sum(p == t for p, t in zip(pred_sym, truth_sym)) / len(test)
        for task, mine in (("emotion", f1), ("symptom", acc)):
            printed = _train_figure(train_outputs[(task, net)], task)
            if printed is None or not _close(mine, printed):
                problems.output(f"{task} train ({net}) prints {printed}, "
                                f"predictions give {mine:.6f}")
        if f1 < base_f1 - STAGE2_SLACK:
            problems.quality(f"emotion F1 {f1:.3f} ({net}) is more than "
                             f"{STAGE2_SLACK} below the constant set's "
                             f"{base_f1:.3f}")
        if acc < base_acc - STAGE2_SLACK:
            problems.quality(f"symptom accuracy {acc:.3f} ({net}) is more "
                             f"than {STAGE2_SLACK} below the majority "
                             f"class's {base_acc:.3f}")
        out[f"emotion_f1.{net}"] = f1
        out[f"symptom_accuracy.{net}"] = acc
    return out


def _stage2_rows(path: Path, clips: list[Clip], problems: Problems):
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    if [r[0] for r in rows] != [c.clip_id for c in clips]:
        problems.output(f"{path.name}: rows do not list the test clips")
    return rows
