"""Parametric synthetic skeleton-motion generator.

Produces clips with known window-level body-language labels, rule-derived
emotion labels, and a binary symptom label, written in the exact keypoint
and manifest formats the ingest module reads.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import core, ingest
from .bodylang import window_starts
from .emotion import N_EMOTIONS
from .core import (TRACKS, BodyLanguageSequence, LabelSet, PipelineConfig,
                   PoseSequence)

BACKGROUND = "background"
FRAME_RATE = 24.0

# Neutral standing pose, pixel coordinates, y grows downward.
REST_POSE = np.array([
    [320.0, 120.0],  # nose
    [320.0, 160.0],  # neck
    [290.0, 165.0], [280.0, 200.0], [275.0, 235.0],   # right arm
    [350.0, 165.0], [360.0, 200.0], [365.0, 235.0],   # left arm
    [300.0, 280.0], [295.0, 340.0], [290.0, 400.0],   # right leg
    [340.0, 280.0], [345.0, 340.0], [350.0, 400.0],   # left leg
    [310.0, 112.0], [330.0, 112.0],                   # eyes
    [300.0, 118.0], [340.0, 118.0],                   # ears
])


@dataclass(frozen=True)
class Move:
    """One joint's parametric motion within a template."""

    joint: int
    kind: str              # offset | sin | drift
    dx: float = 0.0
    dy: float = 0.0
    freq: float = 0.0      # cycles per frame, sin only
    phase: float = 0.0

    def offsets(self, n_frames: int) -> np.ndarray:
        t = np.arange(n_frames, dtype=np.float64)
        if self.kind == "offset":
            return np.tile([self.dx, self.dy], (n_frames, 1))
        if self.kind == "sin":
            wave = np.sin(2 * np.pi * self.freq * t + self.phase)
            return np.stack([self.dx * wave, self.dy * wave], axis=1)
        if self.kind == "drift":
            return np.stack([self.dx * t, self.dy * t], axis=1)
        raise ValueError(f"unknown move kind {self.kind!r}")


@dataclass(frozen=True)
class MotionTemplate:
    name: str
    moves: tuple[Move, ...] = ()
    high_motion: bool = False


# Each track's body-language classes.  Held postures flip the sign of at
# least one centered coordinate or inter-joint orientation relative to the
# rest pose; moving classes differ in which joints move and how fast.  Both
# kinds of contrast survive the per-trajectory L1 normalization of the
# descriptors.
TEMPLATES = {
    "upper": (
        MotionTemplate("arms_crossed", (
            # Right hand rests on the left shoulder: both wrist x signs and
            # the right wrist's y sign flip, so the pooled sign counts shift.
            Move(core.R_WRIST, "offset", 90, -90),
            Move(core.L_WRIST, "offset", -60, -20),
            Move(core.R_ELBOW, "offset", 20, -35),
            Move(core.L_ELBOW, "offset", -18, -8),
        )),
        MotionTemplate("hands_on_head", (
            Move(core.R_WRIST, "offset", 28, -140),  # wrist/elbow y signs flip
            Move(core.L_WRIST, "offset", -28, -140),
            Move(core.R_ELBOW, "offset", -18, -70),
            Move(core.L_ELBOW, "offset", 18, -70),
        )),
        MotionTemplate("wave", (
            Move(core.L_WRIST, "sin", 26, -10, freq=0.25),
            Move(core.L_ELBOW, "sin", 10, -4, freq=0.25),
        ), high_motion=True),
        MotionTemplate("fidget_hands", (
            Move(core.R_WRIST, "sin", 9, 7, freq=0.38),
            Move(core.L_WRIST, "sin", -9, 7, freq=0.38, phase=1.3),
        ), high_motion=True),
        MotionTemplate("reach_out", (
            Move(core.R_WRIST, "drift", 2.2, -0.8),
            Move(core.R_ELBOW, "drift", 1.0, -0.3),
        )),
        MotionTemplate("nod", (
            Move(core.NOSE, "sin", 0, 12, freq=0.12),
            Move(core.R_EYE, "sin", 0, 11, freq=0.12),
            Move(core.L_EYE, "sin", 0, 11, freq=0.12),
        )),
    ),
    "lower": (
        MotionTemplate("legs_crossed", (
            Move(core.R_ANKLE, "offset", 70, -8),    # right ankle/knee x flip
            Move(core.R_KNEE, "offset", 35, -3),
        )),
        MotionTemplate("foot_tap", (
            Move(core.R_ANKLE, "sin", 0, 13, freq=0.4),
        ), high_motion=True),
        MotionTemplate("pacing", (
            Move(core.R_HIP, "sin", 24, 0, freq=0.07),
            Move(core.L_HIP, "sin", 24, 0, freq=0.07),
            Move(core.R_KNEE, "sin", 34, 0, freq=0.07),
            Move(core.L_KNEE, "sin", 34, 0, freq=0.07, phase=0.8),
            Move(core.R_ANKLE, "sin", 44, 0, freq=0.07),
            Move(core.L_ANKLE, "sin", 44, 0, freq=0.07, phase=0.8),
        )),
        MotionTemplate("knee_bounce", (
            Move(core.R_KNEE, "sin", 0, 11, freq=0.3),
            Move(core.R_ANKLE, "sin", 0, 5, freq=0.3),
        ), high_motion=True),
        MotionTemplate("lean", (
            Move(core.R_HIP, "offset", 35, -6),      # right hip x flip
            Move(core.L_HIP, "offset", 35, -6),
        )),
        MotionTemplate("legs_tucked", (
            # Legs swept to the left side: the whole right leg crosses the
            # midline, flipping three x signs.
            Move(core.R_HIP, "offset", 35, 4),
            Move(core.R_KNEE, "offset", 45, 6),
            Move(core.R_ANKLE, "offset", 55, 8),
        )),
    ),
}


@dataclass(frozen=True)
class EmotionRule:
    """An emotion as a boolean function of the body-language sequence."""

    kind: str      # presence | order
    track: str
    class_a: str
    class_b: str = ""
    emotion: int = 0

    def applies(self, window_labels: list[str]) -> bool:
        if self.kind == "presence":
            return self.class_a in window_labels
        first_a = next((i for i, c in enumerate(window_labels)
                        if c == self.class_a), None)
        first_b = next((i for i, c in enumerate(window_labels)
                        if c == self.class_b), None)
        return first_a is not None and first_b is not None and first_a < first_b


# Emotions 0-3, shared by both rule sets.
_PRESENCE_RULES = (
    EmotionRule("presence", "upper", "arms_crossed", emotion=0),
    EmotionRule("presence", "upper", "wave", emotion=1),
    EmotionRule("presence", "lower", "legs_crossed", emotion=2),
    EmotionRule("presence", "lower", "foot_tap", emotion=3),
)


def default_emotion_rules() -> tuple[EmotionRule, ...]:
    return _PRESENCE_RULES + (
        EmotionRule("order", "upper", "arms_crossed", "wave", emotion=4),
        EmotionRule("order", "upper", "wave", "arms_crossed", emotion=5),
        EmotionRule("order", "lower", "legs_crossed", "pacing", emotion=6),
        EmotionRule("order", "lower", "foot_tap", "knee_bounce", emotion=7),
        EmotionRule("order", "upper", "hands_on_head", "fidget_hands", emotion=8),
        EmotionRule("order", "lower", "knee_bounce", "lean", emotion=9),
    )


@dataclass(frozen=True)
class ScenarioSpec:
    emotion_rules: tuple[EmotionRule, ...] = field(default_factory=default_emotion_rules)
    high_motion_threshold: float = 0.35
    clip_len: int = 72
    clips_per_split: int = 48
    segment_len_range: tuple[int, int] = (28, 44)
    noise_std: float = 0.0
    dropout_rate: float = 0.0
    background_prob: float = 0.25
    # Clip index -> probability of drawing a high-motion class for a
    # non-background segment; None draws every class alike.
    motion_bias: Callable[[int], float] | None = None
    seed: int = 0

    def label_sets(self) -> dict[str, LabelSet]:
        return {track: LabelSet.from_classes([t.name for t in TEMPLATES[track]])
                for track in TRACKS}

    def high_motion_names(self) -> set[str]:
        return {t.name for track in TRACKS for t in TEMPLATES[track]
                if t.high_motion}


def order_rich_emotion_rules() -> tuple[EmotionRule, ...]:
    """Rules where most emotions depend on which class appears first."""
    rules = list(_PRESENCE_RULES)
    pairs = (
        ("upper", "arms_crossed", "wave"),
        ("lower", "legs_crossed", "pacing"),
        ("upper", "hands_on_head", "fidget_hands"),
        ("lower", "foot_tap", "knee_bounce"),
        ("upper", "reach_out", "nod"),
        ("lower", "lean", "legs_tucked"),
    )
    emo = 4
    for track, a, b in pairs:
        rules.append(EmotionRule("order", track, a, b, emotion=emo))
        rules.append(EmotionRule("order", track, b, a, emotion=emo + 1))
        emo += 2
    return tuple(rules)


def spread_motion_bias(clip_index: int) -> float:
    """Deterministic per-clip bias toward high-motion classes, spread over
    [0.15, 0.85] so the high-motion window fraction varies smoothly across
    clips instead of clustering at a few values."""
    return 0.15 + 0.7 * ((clip_index * 0.618) % 1.0)


def stage2_scenario(**overrides) -> ScenarioSpec:
    """Scenario tuned for the downstream tasks: many short segments per
    clip, so order-dependent emotion rules fire often and the high-motion
    fraction takes fine-grained values around the symptom threshold, with
    a high-motion bias spread over the clips."""
    base = dict(clip_len=90, segment_len_range=(9, 15), background_prob=0.15,
                high_motion_threshold=0.5, motion_bias=spread_motion_bias,
                emotion_rules=order_rich_emotion_rules())
    base.update(overrides)
    return ScenarioSpec(**base)


@dataclass
class ClipTruth:
    clip_id: str
    window_labels: dict[str, list[str]]   # track -> class name per window
    video_labels: dict[str, tuple[str, ...]]


def emotions_from_windows(window_labels, rules) -> np.ndarray:
    """Recompute the emotion n-hot vector from per-track window label
    sequences; with no rule firing, only background is set."""
    vec = np.zeros(N_EMOTIONS, dtype=int)
    for rule in rules:
        if rule.applies(window_labels[rule.track]):
            vec[rule.emotion] = 1
    if vec.sum() == 0:
        vec[core.EMOTION_NAMES.index(BACKGROUND)] = 1
    return vec


def symptom_from_windows(window_labels, high_motion: set[str],
                         threshold: float) -> int:
    """ME (1) when the fraction of windows with a high-frequency-motion
    class on any track exceeds the threshold, else MDD (0)."""
    windows = list(zip(*(window_labels[track] for track in TRACKS)))
    hits = sum(1 for names in windows
               if any(name in high_motion for name in names))
    return int(hits / len(windows) > threshold)


def _pick_segments(spec: ScenarioSpec, templates, rng,
                   motion_bias: float | None) -> list[tuple[str, int]]:
    by_name = {t.name: t for t in templates}
    names = [t.name for t in templates]
    segments = []
    total = 0
    while total < spec.clip_len:
        length = int(rng.integers(*spec.segment_len_range))
        length = min(length, spec.clip_len - total)
        # Absorb a tail too short to be its own segment.
        if spec.clip_len - total - length < spec.segment_len_range[0]:
            length = spec.clip_len - total
        if rng.random() < spec.background_prob:
            name = BACKGROUND
        elif motion_bias is not None:
            moving = [n for n in names if by_name[n].high_motion]
            still = [n for n in names if not by_name[n].high_motion]
            pool = moving if rng.random() < motion_bias else still
            name = pool[rng.integers(len(pool))]
        else:
            name = names[rng.integers(len(names))]
        segments.append((name, length))
        total += length
    return segments


def _apply_segments(xy: np.ndarray, segments, templates) -> np.ndarray:
    """Frame-level class name per frame, mutating xy in place."""
    by_name = {t.name: t for t in templates}
    frame_classes = []
    t0 = 0
    for name, length in segments:
        if name != BACKGROUND:
            for move in by_name[name].moves:
                xy[t0:t0 + length, move.joint, :] += move.offsets(length)
        frame_classes.extend([name] * length)
        t0 += length
    return np.array(frame_classes)


def _majority(labels: np.ndarray) -> str:
    values, counts = np.unique(labels, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    best = counts[order[0]]
    # Prefer the label that starts earliest among tied majorities.
    tied = [v for v, c in zip(values, counts) if c == best]
    if len(tied) == 1:
        return str(values[order[0]])
    firsts = {t: int(np.argmax(labels == t)) for t in tied}
    return min(tied, key=lambda t: firsts[t])


def generate_clip(spec: ScenarioSpec, clip_index: int, config: PipelineConfig
                  ) -> tuple[PoseSequence, ClipTruth]:
    """Build one raw clip plus aligned ground truth.

    The raw sequence carries a random global translation, a uniform scale
    in [0.5, 2], Gaussian joint noise, and random joint dropouts; the
    preprocessing stage must undo the first two.
    """
    rng = np.random.default_rng((spec.seed, clip_index))
    clip_id = f"clip{clip_index:03d}"
    n = spec.clip_len

    xy = np.tile(REST_POSE, (n, 1, 1))
    motion_bias = spec.motion_bias(clip_index) if spec.motion_bias else None
    starts = window_starts(n, config.window_len, config.window_stride)
    window_labels: dict[str, list[str]] = {}
    video: dict[str, tuple[str, ...]] = {}
    for track in TRACKS:
        segments = _pick_segments(spec, TEMPLATES[track], rng, motion_bias)
        frames = _apply_segments(xy, segments, TEMPLATES[track])
        # Window-grid ground truth by majority frame class; a class is
        # present in the video once it owns enough windows.
        window_labels[track] = [_majority(frames[w0:w0 + config.window_len])
                                for w0 in starts]
        video[track] = tuple(sorted(
            name for name, c in Counter(window_labels[track]).items()
            if name != BACKGROUND and c >= config.min_windows))

    emotions = emotions_from_windows(window_labels, spec.emotion_rules)
    video["emotion"] = tuple(core.EMOTION_NAMES[i]
                             for i in np.flatnonzero(emotions))
    symptom = symptom_from_windows(window_labels, spec.high_motion_names(),
                                   spec.high_motion_threshold)
    video["symptom"] = ("ME",) if symptom else ("MDD",)

    # Raw-view corruption.
    scale = rng.uniform(0.5, 2.0)
    translation = rng.uniform(-200.0, 200.0, size=2)
    xy = xy * scale + translation
    if spec.noise_std > 0:
        xy = xy + rng.normal(0.0, spec.noise_std, size=xy.shape)
    valid = np.ones((n, core.N_JOINTS), dtype=bool)
    if spec.dropout_rate > 0:
        valid = rng.random((n, core.N_JOINTS)) >= spec.dropout_rate
        # Keep the neck recoverable.
        if not valid[:, core.NECK].any():
            valid[0, core.NECK] = True
    confidence = np.where(valid, 0.9, 0.0)
    xy = np.where(valid[..., None], xy, 0.0)

    seq = PoseSequence(xy=xy, confidence=confidence, valid=valid,
                       frame_rate=FRAME_RATE, source_id=clip_id)
    truth = ClipTruth(clip_id=clip_id, window_labels=window_labels,
                      video_labels=video)
    return seq, truth


# ---------------------------------------------------------------------------
# On-disk dataset in the ingest formats

def _write_clip(seq: PoseSequence, clip_dir: Path) -> None:
    clip_dir.mkdir(parents=True, exist_ok=True)
    rows = np.where(seq.valid[..., None],
                    np.dstack([seq.xy, seq.confidence]), 0.0)
    for t, kps in enumerate(rows.reshape(seq.n_frames, -1).tolist()):
        doc = {"people": [{"pose_keypoints_2d": kps}]}
        (clip_dir / f"frame_{t:06d}.json").write_text(json.dumps(doc))


def _labels_field(video: dict[str, tuple[str, ...]]) -> str:
    channels = []
    for task in (*TRACKS, "emotion", "symptom"):
        channels.append(f"{task}:{'|'.join(video.get(task, ()))}")
    return ";".join(channels)


def generate_dataset(spec: ScenarioSpec, out_dir, config: PipelineConfig
                     ) -> Path:
    """Write a full synthetic dataset: clips, window ground truth, label-set
    manifest, and dataset manifest with 3 equal splits."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "gt").mkdir(exist_ok=True)

    label_lines = [f"{track},{t.name}" for track in TRACKS
                   for t in TEMPLATES[track]]
    (out_dir / "labels.csv").write_text("\n".join(label_lines) + "\n")

    manifest_lines = []
    n_total = 3 * spec.clips_per_split
    for idx in range(n_total):
        split = ("train", "val", "test")[idx // spec.clips_per_split]
        seq, truth = generate_clip(spec, idx, config)
        _write_clip(seq, out_dir / "clips" / truth.clip_id)
        gt_path = out_dir / "gt" / f"{truth.clip_id}.csv"
        rows = zip(*(truth.window_labels[track] for track in TRACKS))
        gt_path.write_text("\n".join(
            f"{w},{','.join(names)}" for w, names in enumerate(rows)) + "\n")
        manifest_lines.append(
            f"{truth.clip_id},clips/{truth.clip_id},{FRAME_RATE:g},"
            f"{split},{_labels_field(truth.video_labels)},gt/{truth.clip_id}.csv")
    (out_dir / "manifest.csv").write_text("\n".join(manifest_lines) + "\n")
    return out_dir / "manifest.csv"


def pick_exemplars(manifest, gt_by_clip: dict[str, BodyLanguageSequence],
                   label_sets: dict[str, LabelSet], window_stride: int,
                   per_class: int = 6,
                   seed: int = 0) -> list[tuple[str, str, int, str]]:
    """Choose exemplar (clip, window) pairs per class from training clips.

    Stands in for the manual selection step: picks windows spread across
    clips, preferring one exemplar per clip.
    """
    rng = np.random.default_rng((seed, 101))
    rows: list[tuple[str, str, int, str]] = []
    train = [ingest.window_labels_of(e, gt_by_clip)
             for e in manifest.split("train")]
    for track in TRACKS:
        for cls, name in enumerate(label_sets[track].names):
            per_clip: list[list[tuple[str, int]]] = []
            for gt in train:
                labels = gt.ids[track]
                hits = np.flatnonzero(labels == cls).tolist()
                # Prefer windows inside a run of identical labels.
                pure = [i for i in hits
                        if 0 < i < len(labels) - 1
                        and labels[i - 1] == cls and labels[i + 1] == cls]
                pool = pure or hits
                if pool:
                    # Order a clip's windows centre-out so the first pick
                    # per clip sits deepest inside its segment.
                    ordered = sorted(pool, key=lambda i: abs(i - pool[len(pool) // 2]))
                    per_clip.append([(gt.clip_id, i) for i in ordered])
            if not per_clip:
                continue
            order = rng.permutation(len(per_clip))
            candidates: list[tuple[str, int]] = []
            depth = 0
            # Round-robin over clips so exemplars spread across clips first.
            while len(candidates) < per_class and any(
                    depth < len(per_clip[c]) for c in order):
                for c in order:
                    if depth < len(per_clip[c]):
                        candidates.append(per_clip[c][depth])
                depth += 1
            for clip_id, w in sorted(candidates[:per_class]):
                rows.append((track, clip_id, int(w) * window_stride, name))
    return rows
