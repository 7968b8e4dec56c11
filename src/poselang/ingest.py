"""Parse keypoint files and dataset manifests into pose sequences."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import N_JOINTS, PoseSequence, PoselangError

MIN_JOINT_CONFIDENCE = 0.1
_FRAME_RE = re.compile(r"(\d+)")


class MalformedFile(PoselangError):
    pass


class NoPerson(PoselangError):
    pass


class EmptySequence(PoselangError):
    pass


class MixedSchema(PoselangError):
    pass


class EmptyManifest(PoselangError):
    pass


class UnknownLabel(PoselangError):
    pass


class DuplicateClipId(PoselangError):
    pass


@dataclass
class ParsedPose:
    """Raw per-frame parse result: arrays ready to stack into a sequence."""

    xy: np.ndarray          # (18, 2)
    confidence: np.ndarray  # (18,)
    valid: np.ndarray       # (18,) bool


def invalid_pose() -> ParsedPose:
    """All-invalid placeholder used for missing or person-less frames."""
    return ParsedPose(
        xy=np.zeros((N_JOINTS, 2)),
        confidence=np.zeros(N_JOINTS),
        valid=np.zeros(N_JOINTS, dtype=bool),
    )


def parse_keypoint_frame(data: bytes | str) -> ParsedPose:
    """Parse one per-frame keypoint document (BODY-18 layout).

    Picks the person with the highest mean confidence.  Joints below the
    confidence floor or sitting at the (0,0) sentinel are marked invalid.
    """
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"unparseable keypoint document: {exc}") from exc
    if not isinstance(doc, dict) or "people" not in doc:
        raise MalformedFile("keypoint document missing 'people'")
    people = doc["people"]
    if not isinstance(people, list):
        raise MalformedFile("'people' is not a list")
    if not people:
        raise NoPerson("no person in frame")

    best = None
    best_mean = -1.0
    for person in people:
        kps = person.get("pose_keypoints_2d") if isinstance(person, dict) else None
        if kps is None or len(kps) != 3 * N_JOINTS:
            raise MalformedFile(
                f"pose_keypoints_2d must hold {3 * N_JOINTS} values")
        arr = np.asarray(kps, dtype=np.float64).reshape(N_JOINTS, 3)
        mean_conf = float(arr[:, 2].mean())
        if mean_conf > best_mean:
            best_mean = mean_conf
            best = arr

    xy = best[:, :2].copy()
    conf = best[:, 2].copy()
    at_origin = (xy[:, 0] == 0.0) & (xy[:, 1] == 0.0)
    valid = (conf >= MIN_JOINT_CONFIDENCE) & ~at_origin
    return ParsedPose(xy=xy, confidence=conf, valid=valid)


def _frame_index(path: Path) -> int | None:
    matches = _FRAME_RE.findall(path.stem)
    if not matches:
        return None
    return int(matches[-1])


def load_sequence(path, frame_rate: float) -> PoseSequence:
    """Assemble a PoseSequence from a directory of per-frame keypoint files.

    Frame order follows the zero-padded index in each filename; index gaps
    become all-invalid poses to be repaired downstream.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix == ".json")
    elif path.is_file():
        files = [path]
    else:
        raise EmptySequence(f"{path} does not exist")

    indexed: dict[int, Path] = {}
    for f in files:
        idx = _frame_index(f)
        if idx is None:
            raise MixedSchema(f"cannot extract a frame index from {f.name}")
        if idx in indexed:
            raise MixedSchema(f"duplicate frame index {idx} in {path}")
        indexed[idx] = f
    if not indexed:
        raise EmptySequence(f"no keypoint files under {path}")

    lo, hi = min(indexed), max(indexed)
    frames: list[ParsedPose] = []
    parsed_any = False
    for idx in range(lo, hi + 1):
        f = indexed.get(idx)
        if f is None:
            frames.append(invalid_pose())
            continue
        try:
            frames.append(parse_keypoint_frame(f.read_bytes()))
            parsed_any = True
        except NoPerson:
            frames.append(invalid_pose())
    if not parsed_any:
        raise EmptySequence(f"no parseable frame under {path}")

    return PoseSequence(
        xy=np.stack([f.xy for f in frames]),
        confidence=np.stack([f.confidence for f in frames]),
        valid=np.stack([f.valid for f in frames]),
        frame_rate=frame_rate,
        source_id=path.stem,
    )


SPLITS = ("train", "val", "test")


@dataclass
class ManifestEntry:
    clip_id: str
    path: str
    frame_rate: float
    split: str
    labels: dict[str, tuple[str, ...]] = field(default_factory=dict)
    window_labels_path: str | None = None


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    root: Path

    def split(self, name: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == name]

    def by_id(self, clip_id: str) -> ManifestEntry:
        for e in self.entries:
            if e.clip_id == clip_id:
                return e
        raise KeyError(clip_id)


def _parse_labels(spec: str) -> dict[str, tuple[str, ...]]:
    labels: dict[str, tuple[str, ...]] = {}
    for channel in spec.split(";"):
        channel = channel.strip()
        if not channel:
            continue
        task, _, names = channel.partition(":")
        labels[task.strip()] = tuple(n for n in names.split("|") if n)
    return labels


def load_manifest(path, label_sets=None) -> DatasetManifest:
    """Read the dataset manifest CSV.

    Columns: clip_id,path,fps,split,labels[,window_labels_path].  The labels
    column holds `task:name|name;...` channels.  When label_sets is given,
    upper/lower label names are validated against it.
    """
    path = Path(path)
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 5:
                raise MixedSchema(f"manifest line {lineno}: expected >=5 columns")
            clip_id, clip_path, fps, split = (p.strip() for p in parts[:4])
            if clip_id in seen:
                raise DuplicateClipId(clip_id)
            seen.add(clip_id)
            if split not in SPLITS:
                raise MixedSchema(f"manifest line {lineno}: bad split {split!r}")
            labels = _parse_labels(parts[4])
            if label_sets is not None:
                for track in ("upper", "lower"):
                    lset = label_sets.get(track)
                    for name in labels.get(track, ()):
                        if lset is not None and name not in lset.names:
                            raise UnknownLabel(
                                f"manifest line {lineno}: {track} label {name!r}")
            try:
                frame_rate = float(fps)
            except ValueError:
                frame_rate = math.nan
            if not (math.isfinite(frame_rate) and frame_rate > 0):
                raise MalformedFile(
                    f"{path.name} line {lineno}: fps {fps!r} is not a "
                    "finite number > 0")
            window_path = parts[5].strip() if len(parts) > 5 and parts[5].strip() else None
            entries.append(ManifestEntry(
                clip_id=clip_id, path=clip_path, frame_rate=frame_rate,
                split=split, labels=labels, window_labels_path=window_path))
    if not entries:
        raise EmptyManifest(f"{path} holds no entries")
    return DatasetManifest(entries=entries, root=path.parent)


def load_window_labels(path) -> list[tuple[str, str]]:
    """Read per-window ground truth: `window_index,upper,lower` lines."""
    path = Path(path)
    rows: list[tuple[str, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            where = f"{path.name} line {lineno}"
            if len(parts) != 3:
                raise MalformedFile(
                    f"{where}: expected 3 columns, got {len(parts)}")
            idx, upper, lower = parts
            try:
                index = int(idx)
            except ValueError:
                raise MalformedFile(
                    f"{where}: window index {idx!r} is not an integer") from None
            if index != len(rows):
                raise MalformedFile(
                    f"{where}: window index {index}, expected {len(rows)}")
            rows.append((upper.strip(), lower.strip()))
    return rows
