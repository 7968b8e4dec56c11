"""Trajectory descriptors: per-joint position/motion streams plus
pairwise-orientation and triple inner-angle relational streams."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import JointSubset, PoseSequence, PoselangError

DEGENERATE_SUM = 1e-8

NTRAJ_PLUS = "ntraj+"


class SequenceTooShort(PoselangError):
    pass


def stream_kinds(gaps, feature_kind: str = NTRAJ_PLUS) -> list[str]:
    """Canonical stream-kind order; codebooks and histograms follow it."""
    if feature_kind != NTRAJ_PLUS:
        raise PoselangError(f"{feature_kind!r} is not NTraj+, the one "
                            "trajectory feature")
    kinds = ["posx", "posy"]
    for prefix in ("dx", "dy", "angle"):
        kinds += [f"{prefix}{s}" for s in sorted(gaps)]
    return kinds + ["pair_orient", "inner_angle"]


@dataclass
class StreamBlock:
    """All streams of one kind, stacked: values is (time, n_streams)."""

    kind: str
    gap: int | None
    values: np.ndarray
    scopes: list[tuple[int, ...]]


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    # Map the -pi branch onto +pi so angles live in (-pi, pi].
    return np.where(a <= -np.pi, np.pi, a)


def raw_streams(seq: PoseSequence, subset: JointSubset,
                gaps) -> dict[str, StreamBlock]:
    """Compute every per-frame stream value for the subset's joints.

    Returns one block per stream kind.  Motion blocks at gap s are s frames
    shorter than the sequence.
    """
    joints = subset.indices
    pos = seq.xy[:, joints]  # (L, J, 2)
    n, J = pos.shape[0], pos.shape[1]
    gaps = tuple(sorted(gaps))
    if n < max(gaps) + 1:
        raise SequenceTooShort(f"{n} frames < max gap {max(gaps)} + 1")

    blocks: dict[str, StreamBlock] = {}
    single = [(j,) for j in joints]
    blocks["posx"] = StreamBlock("posx", None, pos[:, :, 0], single)
    blocks["posy"] = StreamBlock("posy", None, pos[:, :, 1], single)

    for s in gaps:
        d = pos[s:] - pos[:-s]  # (L-s, J, 2)
        ang = _wrap_angle(np.arctan2(d[:, :, 1], d[:, :, 0]))
        # A joint that barely moved has no meaningful direction; atan2 of
        # rounding noise would otherwise yield an arbitrary angle.
        ang[np.hypot(d[:, :, 0], d[:, :, 1]) < 1e-9] = 0.0
        blocks[f"dx{s}"] = StreamBlock("dx", s, d[:, :, 0], single)
        blocks[f"dy{s}"] = StreamBlock("dy", s, d[:, :, 1], single)
        blocks[f"angle{s}"] = StreamBlock("angle", s, ang, single)

    pairs = list(combinations(range(J), 2))
    pi = np.array([p[0] for p in pairs], dtype=int)
    pj = np.array([p[1] for p in pairs], dtype=int)
    d = pos[:, pj, :] - pos[:, pi, :]
    vals = _wrap_angle(np.arctan2(d[:, :, 1], d[:, :, 0]))
    blocks["pair_orient"] = StreamBlock(
        "pair_orient", None, vals,
        [(joints[i], joints[j]) for i, j in pairs])

    # Each triple's angle at each of its corners, in triple order: the
    # vertex with its two arms in index order.
    corners = [corner for a, b, c in combinations(range(J), 3)
               for corner in ((a, b, c), (b, a, c), (c, a, b))]
    v, a0, a1 = np.array(corners, dtype=int).reshape(-1, 3).T
    u = pos[:, a0, :] - pos[:, v, :]
    w = pos[:, a1, :] - pos[:, v, :]
    cross = u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]
    dot = (u * w).sum(axis=-1)
    vals = np.arctan2(np.abs(cross), dot)
    scopes = [(joints[v], joints[a0], joints[a1]) for v, a0, a1 in corners]
    blocks["inner_angle"] = StreamBlock("inner_angle", None, vals, scopes)

    return blocks


@dataclass
class DescriptorBlock:
    """L1-normalized T-step trajectories for one stream kind.

    values is (n_starts, n_streams, T); descriptor (t, c) covers start
    frame t of stream scopes[c].
    """

    kind: str
    gap: int | None
    values: np.ndarray
    scopes: list[tuple[int, ...]]
    degenerate: np.ndarray  # (n_starts, n_streams) bool


def _normalize_block(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sums = np.abs(windows).sum(axis=-1, keepdims=True)
    degenerate = sums[..., 0] < DEGENERATE_SUM
    safe = np.where(sums < DEGENERATE_SUM, 1.0, sums)
    out = windows / safe
    out[degenerate] = 0.0
    return out, degenerate


def _check_length(n_frames: int, traj_len: int, gaps) -> None:
    if n_frames < traj_len + max(gaps):
        raise SequenceTooShort(
            f"{n_frames} frames < traj_len {traj_len} + max gap {max(gaps)}")


def descriptor_rows(n_frames: int, subset: JointSubset, traj_len: int,
                    gaps) -> dict[str, int]:
    """Descriptor count per stream kind of an `n_frames` clip: start
    frames times streams, the rows of `extract_descriptors`' blocks."""
    _check_length(n_frames, traj_len, gaps)
    starts = n_frames - traj_len + 1
    J = len(subset.indices)
    rows = {"posx": starts * J, "posy": starts * J}
    for prefix in ("dx", "dy", "angle"):
        rows.update({f"{prefix}{s}": (starts - s) * J for s in gaps})
    rows["pair_orient"] = starts * comb(J, 2)
    rows["inner_angle"] = starts * 3 * comb(J, 3)
    return rows


def extract_descriptors(seq, subset: JointSubset, traj_len: int,
                        gaps) -> dict[str, DescriptorBlock]:
    """Slide a length-T window over every stream and L1-normalize.

    Zero-sum trajectories come out as all-zero vectors tagged degenerate so
    descriptor counts stay independent of content.
    """
    gaps = tuple(sorted(gaps))
    _check_length(seq.n_frames, traj_len, gaps)
    blocks = raw_streams(seq, subset, gaps)
    out: dict[str, DescriptorBlock] = {}
    for key, blk in blocks.items():
        # (n_starts, n_streams, T)
        windows = sliding_window_view(blk.values, traj_len, axis=0).copy()
        values, degenerate = _normalize_block(windows)
        out[key] = DescriptorBlock(blk.kind, blk.gap, values, blk.scopes,
                                   degenerate)
    return out
