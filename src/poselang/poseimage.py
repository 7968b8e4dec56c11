"""Pose images: a window of poses as a time-by-joint matrix, min-max scaled
to [0, 255] and resized, for the convolutional encoder to embed."""

from __future__ import annotations

import numpy as np

from . import core
from .core import PoselangError, ShapeMismatch

# Column order chains body parts head-first: nose, left arm, right arm,
# neck, left leg, right leg, eyes, ears.
CHAIN_ORDER = (
    core.NOSE,
    core.L_SHOULDER, core.L_ELBOW, core.L_WRIST,
    core.R_SHOULDER, core.R_ELBOW, core.R_WRIST,
    core.NECK,
    core.L_HIP, core.L_KNEE, core.L_ANKLE,
    core.R_HIP, core.R_KNEE, core.R_ANKLE,
    core.L_EYE, core.R_EYE,
    core.L_EAR, core.R_EAR,
)


class EmptyWindow(PoselangError):
    pass


def bilinear_resize(mat: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Align-corners bilinear resize of the last two axes of `mat`,
    broadcast over any leading axes.

    With matching input and output sizes the sample grid lands exactly on
    the source grid, so the resize is the identity.
    """
    h, w = mat.shape[-2:]
    H, W = out_hw

    def grid(n_in, n_out):
        if n_out == 1 or n_in == 1:
            return np.zeros(n_out)
        return np.arange(n_out) * (n_in - 1) / (n_out - 1)

    ys, xs = grid(h, H), grid(w, W)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    rows0, rows1 = mat[..., y0, :], mat[..., y1, :]
    top = rows0[..., x0] * (1 - fx) + rows0[..., x1] * fx
    bot = rows1[..., x0] * (1 - fx) + rows1[..., x1] * fx
    return top * (1 - fy) + bot * fy


def encode_pose_image(windows_xy: np.ndarray,
                      out_size: tuple[int, int]) -> np.ndarray:
    """Encode a stack of windows of preprocessed poses as pose images.

    windows_xy is (n, frames, 18, 2); the result is (n, H, W, 2).  Rows
    are frames; columns follow CHAIN_ORDER.  Each channel of each image is
    min-max mapped to [0, 255] (a constant channel maps to 127.5) and
    bilinearly resized.
    """
    windows_xy = np.asarray(windows_xy, dtype=np.float64)
    if windows_xy.ndim != 4 or windows_xy.shape[2:] != (core.N_JOINTS, 2):
        raise ShapeMismatch(f"windows shape {windows_xy.shape}")
    if windows_xy.shape[1] == 0:
        raise EmptyWindow("each window must hold at least one (18, 2) pose")

    # (n, 2, frames, 18): one matrix per image and channel.
    chained = windows_xy[:, :, CHAIN_ORDER, :].transpose(0, 3, 1, 2)
    lo = chained.min(axis=(2, 3), keepdims=True)
    hi = chained.max(axis=(2, 3), keepdims=True)
    flat = hi - lo < 1e-12
    scale = 255.0 / np.where(flat, 1.0, hi - lo)
    scaled = np.where(flat, 127.5, (chained - lo) * scale)
    values = bilinear_resize(scaled, out_size).transpose(0, 2, 3, 1)
    # A fresh C-ordered output, not the transposed layout of `values`.
    return np.clip(values, 0.0, 255.0, out=np.empty(values.shape))

