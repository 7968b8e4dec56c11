"""Shared domain types: joint layout, sequences, label sets, configuration."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np

N_JOINTS = 18

# BODY-18 joint ordering used by the upstream keypoint producer.
NOSE = 0
NECK = 1
R_SHOULDER = 2
R_ELBOW = 3
R_WRIST = 4
L_SHOULDER = 5
L_ELBOW = 6
L_WRIST = 7
R_HIP = 8
R_KNEE = 9
R_ANKLE = 10
L_HIP = 11
L_KNEE = 12
L_ANKLE = 13
R_EYE = 14
L_EYE = 15
R_EAR = 16
L_EAR = 17

# Torso and both legs: used for lower-body recognition.
LOWER_JOINTS = (NECK, R_HIP, R_KNEE, R_ANKLE, L_HIP, L_KNEE, L_ANKLE)
# Arms and head; the neck is shared with the lower set as the torso anchor.
UPPER_JOINTS = (NOSE, NECK, R_SHOULDER, R_ELBOW, R_WRIST,
                L_SHOULDER, L_ELBOW, L_WRIST, R_EYE, L_EYE, R_EAR, L_EAR)
TRACKS = ("upper", "lower")

# Stage-2 vocabularies: 24 emotions plus background, and the symptom flag
# (major depressive disorder or manic episode).
EMOTION_NAMES = tuple(f"e{i:02d}" for i in range(24)) + ("background",)
SYMPTOM_NAMES = ("MDD", "ME")


class PoselangError(Exception):
    """Base class for all pipeline errors."""


class ValidationError(PoselangError):
    pass


class ShapeMismatch(PoselangError):
    pass


class InvariantViolated(PoselangError):
    """An internal invariant failed: a numeric breakdown or a bug, not bad
    input."""


def data_lines(path):
    """(line number, stripped text) of each line of a UTF-8 text file that
    is neither blank nor a `#` comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PoseSequence:
    """A time-ordered sequence of 18-joint 2D skeletons.

    Coordinates are stored as a (frames, 18, 2) float64 array, confidences
    and validity flags as (frames, 18).  Arrays are frozen after
    construction, so sequences are safe to share.
    """

    xy: np.ndarray
    confidence: np.ndarray
    valid: np.ndarray
    frame_rate: float
    source_id: str = ""

    def __post_init__(self):
        xy = np.asarray(self.xy, dtype=np.float64)
        conf = np.asarray(self.confidence, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        if xy.ndim != 3 or xy.shape[1] != N_JOINTS or xy.shape[2] != 2:
            raise ValidationError(f"xy shape {xy.shape}, want (frames, 18, 2)")
        if xy.shape[0] == 0:
            raise ValidationError("sequence has no frames")
        if conf.shape != xy.shape[:2] or valid.shape != xy.shape[:2]:
            raise ValidationError("confidence/valid shape mismatch")
        if not self.frame_rate > 0:
            raise ValidationError(f"frame_rate {self.frame_rate} must be > 0")
        object.__setattr__(self, "xy", _freeze(xy))
        object.__setattr__(self, "confidence", _freeze(conf))
        object.__setattr__(self, "valid", _freeze(valid))

    @property
    def n_frames(self) -> int:
        return self.xy.shape[0]


@dataclass
class BodyLanguageSequence:
    """Per-window class ids and confidences over one clip, each keyed by
    track: stage-1 predictions, or ground truth with unit confidences."""

    clip_id: str
    ids: dict[str, np.ndarray]
    conf: dict[str, np.ndarray]

    @property
    def n_windows(self) -> int:
        return len(self.ids[TRACKS[0]])


@dataclass(frozen=True)
class JointSubset:
    """An ordered selection of joint indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ValidationError("subset indices must be unique")
        if any(i < 0 or i >= N_JOINTS for i in idx):
            raise ValidationError("subset indices must lie in [0, 18)")
        if tuple(sorted(idx)) != idx:
            raise ValidationError("subset indices must be sorted")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


SUBSETS = {"upper": JointSubset(tuple(sorted(UPPER_JOINTS))),
           "lower": JointSubset(tuple(sorted(LOWER_JOINTS)))}


@dataclass(frozen=True)
class LabelSet:
    """Ordered class vocabulary for one body-language track."""

    names: tuple[str, ...]
    background_index: int

    def __post_init__(self):
        names = tuple(self.names)
        if len(set(names)) != len(names):
            raise ValidationError("label names must be unique")
        if not (0 <= self.background_index < len(names)):
            raise ValidationError("background_index out of range")
        object.__setattr__(self, "names", names)

    @classmethod
    def from_classes(cls, classes, background: str = "background") -> "LabelSet":
        names = tuple(classes) + (background,)
        return cls(names=names, background_index=len(names) - 1)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown label {name!r}") from None


def load_label_sets(path) -> dict[str, LabelSet]:
    """Read the label-set manifest: one `set,name` record per line.

    A background class is appended to each set automatically.
    """
    classes: dict[str, list[str]] = {track: [] for track in TRACKS}
    for lineno, line in data_lines(path):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2 or parts[0] not in classes:
            raise ValidationError(f"bad label manifest line {lineno}: {line!r}")
        classes[parts[0]].append(parts[1])
    return {track: LabelSet.from_classes(names) for track, names in classes.items()}


ADMISSIBLE_CODEBOOK_SIZES = (10, 20, 50, 100, 200, 500)


@dataclass(frozen=True)
class PipelineConfig:
    """All tunable pipeline constants, with defaults."""

    torso_target: float = 240.0
    neck_smooth_radius: int = 2
    traj_len: int = 5
    gaps: tuple[int, ...] = (1, 2, 3)
    codebook_size: int = 100
    codebook_restarts: int = 10
    codebook_sample_cap: int = 5000
    window_len: int = 6
    window_stride: int = 3
    knn_k: int = 3
    min_windows: int = 2
    emo_hist_len: int = 7
    emo_hist_stride: int = 3
    pose_image_size: tuple[int, int] = (32, 32)
    seed: int = 0

    def __post_init__(self):
        for name in ("torso_target", "traj_len", "codebook_size",
                     "codebook_restarts", "codebook_sample_cap", "window_len",
                     "window_stride", "knn_k", "min_windows", "emo_hist_len",
                     "emo_hist_stride"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive")
        for name in ("neck_smooth_radius", "seed"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if not self.gaps or any(g <= 0 for g in self.gaps):
            raise ValidationError("gaps must be positive")
        if len(self.pose_image_size) != 2 or min(self.pose_image_size) < 1:
            raise ValidationError("pose_image_size must be two positive sizes")
        object.__setattr__(self, "gaps", tuple(sorted(set(int(g) for g in self.gaps))))
        object.__setattr__(self, "pose_image_size",
                           tuple(int(v) for v in self.pose_image_size))

    def config_hash(self) -> str:
        """Stable short hash used to stamp artifact files."""
        parts = []
        for f in fields(self):
            parts.append(f"{f.name}={getattr(self, f.name)!r}")
        digest = hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()
        return digest[:16]

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Load overrides from a flat key=value text file.  Each value is
        checked on its own, so an error names its line."""
        kw = {}
        valid = {f.name for f in fields(cls)}
        for lineno, line in data_lines(path):
            where = f"{path} line {lineno}"
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValidationError(f"{where}: expected key=value")
            if key not in valid:
                raise ValidationError(f"{where}: unknown config key {key!r}")
            try:
                if key in ("gaps", "pose_image_size"):
                    kw[key] = tuple(int(v) for v in value.split(","))
                else:
                    kw[key] = (float if key == "torso_target" else int)(value)
                cls(**{key: kw[key]})
            except (ValueError, ValidationError) as exc:
                raise ValidationError(
                    f"{where}: bad {key} value {value!r} ({exc})") from None
        return cls(**kw)
