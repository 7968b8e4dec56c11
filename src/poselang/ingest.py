"""Parse keypoint files and dataset manifests into pose sequences."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (EMOTION_NAMES, N_JOINTS, SYMPTOM_NAMES, TRACKS,
                   BodyLanguageSequence, LabelSet, PoseSequence, PoselangError,
                   data_lines)

MIN_JOINT_CONFIDENCE = 0.1
_FRAME_RE = re.compile(r"(\d+)")


class MalformedFile(PoselangError):
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


class MissingWindowLabels(PoselangError):
    pass


class EmptySplit(PoselangError):
    pass


def parse_keypoint_frame(data: bytes | str) -> np.ndarray | None:
    """Parse one per-frame keypoint document (BODY-18 layout) into the
    (18, 3) `x, y, confidence` rows of the person with the highest mean
    confidence; None when the frame holds no person.

    Every coordinate must be a finite number and every confidence a finite
    number >= 0.
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

    poses = []
    for person in people:
        kps = person.get("pose_keypoints_2d") if isinstance(person, dict) else None
        if not isinstance(kps, list) or len(kps) != 3 * N_JOINTS:
            raise MalformedFile(
                f"pose_keypoints_2d must hold {3 * N_JOINTS} values")
        try:
            arr = np.asarray(kps, dtype=np.float64).reshape(N_JOINTS, 3)
        except (TypeError, ValueError):
            raise MalformedFile("pose_keypoints_2d holds a value that is not "
                                "a number") from None
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1) | (arr[:, 2] < 0))
        if bad.size:
            raise MalformedFile(f"joint {bad[0]} of pose_keypoints_2d is not "
                                "finite or has a negative confidence")
        poses.append(arr)
    return max(poses, key=lambda arr: arr[:, 2].mean(), default=None)


def _frame_index(path: Path) -> int | None:
    matches = _FRAME_RE.findall(path.stem)
    if not matches:
        return None
    return int(matches[-1])


def load_sequence(path, frame_rate: float) -> PoseSequence:
    """Assemble a PoseSequence from a directory of per-frame keypoint files.

    Frame order follows the zero-padded index in each filename; index gaps
    and person-less frames stay all zero, so every joint there is invalid
    and is repaired downstream.  Joints below the confidence floor or at
    the (0, 0) sentinel are invalid too.
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

    lo = min(indexed)
    frames = np.zeros((max(indexed) - lo + 1, N_JOINTS, 3))
    parsed_any = False
    for idx in sorted(indexed):
        try:
            pose = parse_keypoint_frame(indexed[idx].read_bytes())
        except MalformedFile as exc:
            raise MalformedFile(f"{indexed[idx]}: {exc}") from None
        if pose is not None:
            frames[idx - lo] = pose
            parsed_any = True
    if not parsed_any:
        raise EmptySequence(f"no parseable frame under {path}")

    xy, confidence = frames[..., :2].copy(), frames[..., 2].copy()
    at_origin = (xy[..., 0] == 0.0) & (xy[..., 1] == 0.0)
    return PoseSequence(
        xy=xy, confidence=confidence,
        valid=(confidence >= MIN_JOINT_CONFIDENCE) & ~at_origin,
        frame_rate=frame_rate, source_id=path.stem)


SPLITS = ("train", "val", "test")


@dataclass
class ManifestEntry:
    clip_id: str
    path: str
    frame_rate: float
    split: str
    labels: dict[str, tuple[str, ...]] = field(default_factory=dict)
    window_labels_path: str | None = None
    where: str = ""  # `<manifest> line <n>`, for errors about this entry


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    path: Path

    def split(self, name: str) -> list[ManifestEntry]:
        """The split's entries in clip-id order; a command that reads a
        split with no line stops."""
        entries = sorted((e for e in self.entries if e.split == name),
                         key=lambda e: e.clip_id)
        if not entries:
            raise EmptySplit(f"{self.path}: no {name} lines; this command "
                             f"needs at least one")
        return entries

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
    column holds `task:name|name;...` channels.  Emotion and symptom
    names are checked against EMOTION_NAMES and SYMPTOM_NAMES (one symptom
    a clip), upper/lower names against label_sets when it is given.
    """
    path = Path(path)
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    vocab = {"emotion": EMOTION_NAMES, "symptom": SYMPTOM_NAMES,
             **{track: lset.names for track, lset in (label_sets or {}).items()}}
    for lineno, line in data_lines(path):
        where = f"{path.name} line {lineno}"
        parts = line.split(",")
        if len(parts) < 5:
            raise MixedSchema(f"{where}: expected >=5 columns")
        clip_id, clip_path, fps, split = (p.strip() for p in parts[:4])
        if clip_id in seen:
            raise DuplicateClipId(f"{where}: clip id {clip_id!r} repeats")
        seen.add(clip_id)
        if split not in SPLITS:
            raise MixedSchema(f"{where}: bad split {split!r}")
        labels = _parse_labels(parts[4])
        for channel, names in labels.items():
            for name in names:
                if channel in vocab and name not in vocab[channel]:
                    raise UnknownLabel(f"{where}: {channel} label {name!r}")
        if len(labels.get("symptom", SYMPTOM_NAMES[:1])) != 1:
            raise UnknownLabel(f"{where}: the symptom channel needs "
                               "exactly one label")
        try:
            frame_rate = float(fps)
        except ValueError:
            frame_rate = math.nan
        if not (math.isfinite(frame_rate) and frame_rate > 0):
            raise MalformedFile(
                f"{where}: fps {fps!r} is not a finite number > 0")
        window_path = parts[5].strip() if len(parts) > 5 and parts[5].strip() else None
        entries.append(ManifestEntry(
            clip_id=clip_id, path=clip_path, frame_rate=frame_rate,
            split=split, labels=labels, window_labels_path=window_path,
            where=where))
    if not entries:
        raise EmptyManifest(f"{path} holds no entries")
    return DatasetManifest(entries=entries, path=path)


def window_labels_of(entry: ManifestEntry, by_clip
                     ) -> BodyLanguageSequence:
    """`by_clip[entry.clip_id]`, for a command that needs the window labels
    of every clip of a split; a manifest line without a window-labels file
    stops it."""
    if entry.clip_id not in by_clip:
        raise MissingWindowLabels(
            f"{entry.where}: clip {entry.clip_id!r} has no window-labels "
            f"file; this command needs one for every clip of its split")
    return by_clip[entry.clip_id]


def load_window_labels(path, label_sets: dict[str, LabelSet],
                       clip_id: str) -> BodyLanguageSequence:
    """Read per-window ground truth, `window_index,upper,lower` lines (one
    class column per track), as class ids with unit confidences.

    Every line's column count and index are checked first, then each
    track's class names in `TRACKS` order; the first bad one is reported.
    """
    path = Path(path)
    width = 1 + len(TRACKS)
    rows: list[tuple[int, list[str]]] = []  # (line number, columns)

    def bad(problem: str) -> MalformedFile:
        return MalformedFile(f"{path} line {lineno}: {problem}")

    for lineno, line in data_lines(path):
        row = line.split(",")
        if len(row) != width:
            raise bad(f"expected {width} columns, got {len(row)}")
        try:
            index = int(row[0])
        except ValueError:
            raise bad(f"window index {row[0]!r} is not an integer") from None
        if index != len(rows):
            raise bad(f"window index {index}, expected {len(rows)}")
        rows.append((lineno, row))
    ids = {}
    for col, track in enumerate(TRACKS, 1):
        lookup = {name: i for i, name in enumerate(label_sets[track].names)}
        ids[track] = [lookup.get(row[col].strip()) for _, row in rows]
        if None in ids[track]:
            lineno, row = rows[ids[track].index(None)]
            raise bad(f"unknown {track} class {row[col].strip()!r}")
    ones = np.ones(len(rows))
    return BodyLanguageSequence(
        clip_id=clip_id,
        ids={track: np.array(v, dtype=int) for track, v in ids.items()},
        conf=dict.fromkeys(TRACKS, ones))
