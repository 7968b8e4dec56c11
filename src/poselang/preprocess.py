"""Scale normalization, reference centering, and missing-joint repair."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import L_HIP, N_JOINTS, NECK, R_HIP, PoseSequence, PoselangError


class Unrepairable(PoselangError):
    pass


class DegenerateTorso(PoselangError):
    pass


@dataclass
class RepairReport:
    """Which joints needed filling, per clip."""

    clip_id: str
    frames_repaired: dict[int, int] = field(default_factory=dict)
    neck_substituted: list[int] = field(default_factory=list)

    @property
    def total_repaired(self) -> int:
        return sum(self.frames_repaired.values())

    def lines(self):
        for joint in sorted(self.frames_repaired):
            yield f"{self.clip_id},{joint},{self.frames_repaired[joint]}"


def _interp_column(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Linear interpolation over invalid runs, edge-hold at the boundaries."""
    t = np.arange(len(values))
    good = np.flatnonzero(valid)
    # np.interp holds the boundary values outside [good[0], good[-1]].
    return np.interp(t, good, values[good])


def repair_joints(seq: PoseSequence) -> tuple[PoseSequence, RepairReport]:
    """Fill invalid joints by per-joint temporal interpolation.

    Joints invalid in every frame fall back to the (repaired) neck position
    and are listed in the report.  Fails if the neck itself never appears.
    """
    report = RepairReport(clip_id=seq.source_id)
    if not seq.valid[:, NECK].any():
        raise Unrepairable(f"{seq.source_id}: neck invalid in every frame")

    xy = seq.xy.copy()
    valid = seq.valid

    # Repair the neck first so it can anchor fully-missing joints.
    order = [NECK] + [j for j in range(N_JOINTS) if j != NECK]
    for j in order:
        col_valid = valid[:, j]
        n_bad = int((~col_valid).sum())
        if n_bad == 0:
            continue
        if not col_valid.any():
            xy[:, j, :] = xy[:, NECK, :]
            report.neck_substituted.append(j)
        else:
            xy[:, j, 0] = _interp_column(xy[:, j, 0], col_valid)
            xy[:, j, 1] = _interp_column(xy[:, j, 1], col_valid)
        report.frames_repaired[j] = n_bad

    out = replace(seq, xy=xy, valid=np.ones_like(seq.valid))
    return out, report


def torso_lengths(seq: PoseSequence) -> np.ndarray:
    """Per-frame distance from the neck to the hip midpoint."""
    hips = 0.5 * (seq.xy[:, R_HIP, :] + seq.xy[:, L_HIP, :])
    return np.linalg.norm(seq.xy[:, NECK, :] - hips, axis=1)


def torso_scale(seq: PoseSequence, target: float) -> tuple[PoseSequence, float]:
    """Rescale so the median torso length equals `target` pixels.

    One scale per sequence (median over frames) keeps estimator jitter from
    turning into frame-to-frame size flicker.
    """
    median = float(np.median(torso_lengths(seq)))
    if median < 1e-6:
        raise DegenerateTorso(f"{seq.source_id}: median torso length {median}")
    scale = target / median
    return replace(seq, xy=seq.xy * scale), scale


def center_on_reference(seq: PoseSequence, radius: int) -> PoseSequence:
    """Subtract the neck position averaged over [t-radius, t+radius].

    The window is clipped at the sequence boundary, so the smoothed neck
    lands exactly at the origin in every frame.
    """
    neck = seq.xy[:, NECK, :]
    n = seq.n_frames
    # Windows are averaged directly rather than via a cumulative sum: a
    # running sum's rounding error varies with t, which turns a perfectly
    # still neck into sub-ulp frame-to-frame jitter that downstream motion
    # streams would amplify through atan2.
    ref = np.empty((n, 2))
    for t in range(n):
        lo = max(t - radius, 0)
        hi = min(t + radius + 1, n)
        ref[t] = neck[lo:hi].mean(axis=0)
    return replace(seq, xy=seq.xy - ref[:, None, :])


def preprocess(seq: PoseSequence, config) -> tuple[PoseSequence, RepairReport]:
    """repair -> torso scale -> reference centering."""
    repaired, report = repair_joints(seq)
    scaled, _ = torso_scale(repaired, config.torso_target)
    centered = center_on_reference(scaled, config.neck_smooth_radius)
    return centered, report
