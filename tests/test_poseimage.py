"""Pose-image rendering and resizing."""

import numpy as np
import pytest

from poselang import core, poseimage


def test_chain_order_is_a_permutation():
    order = poseimage.CHAIN_ORDER
    assert sorted(order) == list(range(core.N_JOINTS))
    assert order[0] == core.NOSE
    assert order[7] == core.NECK


class TestBilinearResize:
    def test_identity_at_same_size(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(6, 9))
        assert np.allclose(poseimage.bilinear_resize(mat, (6, 9)), mat)

    def test_constant_preserved(self):
        mat = np.full((3, 4), 5.5)
        out = poseimage.bilinear_resize(mat, (7, 11))
        assert np.allclose(out, 5.5)

    def test_known_midpoints(self):
        mat = np.array([[0.0, 2.0], [4.0, 6.0]])
        out = poseimage.bilinear_resize(mat, (3, 3))
        assert np.allclose(out, [[0.0, 1.0, 2.0],
                                 [2.0, 3.0, 4.0],
                                 [4.0, 5.0, 6.0]])

    def test_degenerate_single_row(self):
        mat = np.array([[1.0, 3.0]])
        out = poseimage.bilinear_resize(mat, (4, 2))
        assert np.allclose(out, [[1.0, 3.0]] * 4)


class TestEncodePoseImage:
    def test_range_and_shape(self):
        rng = np.random.default_rng(1)
        windows = rng.normal(0.0, 50.0, size=(3, 6, core.N_JOINTS, 2))
        images = poseimage.encode_pose_image(windows, (32, 32))
        assert images.shape == (3, 32, 32, 2)
        assert images.min() >= 0.0
        assert images.max() <= 255.0

    def test_min_max_endpoints_without_resize(self):
        rng = np.random.default_rng(2)
        windows = rng.normal(size=(2, 6, core.N_JOINTS, 2))
        images = poseimage.encode_pose_image(windows, (6, core.N_JOINTS))
        for img in images:
            for c in range(2):
                assert img[:, :, c].min() == pytest.approx(0.0, abs=1e-9)
                assert img[:, :, c].max() == pytest.approx(255.0, abs=1e-9)

    def test_constant_channel_maps_to_mid_gray(self):
        window = np.zeros((5, core.N_JOINTS, 2))
        window[:, :, 1] = np.random.default_rng(3).normal(
            size=(5, core.N_JOINTS))
        img = poseimage.encode_pose_image(window[None], (8, 8))[0]
        assert np.allclose(img[:, :, 0], 127.5)

    def test_columns_follow_chain_order(self):
        window = np.zeros((4, core.N_JOINTS, 2))
        window[:, core.NECK, 0] = 100.0  # brightest x column
        img = poseimage.encode_pose_image(window[None],
                                          (4, core.N_JOINTS))[0]
        col = poseimage.CHAIN_ORDER.index(core.NECK)
        assert np.allclose(img[:, col, 0], 255.0)

    def test_errors(self):
        with pytest.raises(poseimage.EmptyWindow):
            poseimage.encode_pose_image(np.zeros((1, 0, core.N_JOINTS, 2)),
                                        (8, 8))
        with pytest.raises(poseimage.ShapeMismatch):
            poseimage.encode_pose_image(np.zeros((1, 3, 5, 2)), (8, 8))
        with pytest.raises(poseimage.ShapeMismatch):
            poseimage.encode_pose_image(np.zeros((3, core.N_JOINTS, 2)),
                                        (8, 8))


def _resize_reference(mat, out_hw):
    """The one-matrix bilinear resize the batched one replaced."""
    h, w = mat.shape
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
    top = mat[np.ix_(y0, x0)] * (1 - fx) + mat[np.ix_(y0, x1)] * fx
    bot = mat[np.ix_(y1, x0)] * (1 - fx) + mat[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bot * fy


def _render_reference(window_xy, out_size):
    """One window at a time, as pose images were rendered before they were
    batched."""
    chained = window_xy[:, poseimage.CHAIN_ORDER, :]
    channels = []
    for c in range(2):
        mat = chained[:, :, c]
        lo, hi = mat.min(), mat.max()
        if hi - lo < 1e-12:
            scaled = np.full_like(mat, 127.5)
        else:
            scaled = (mat - lo) * (255.0 / (hi - lo))
        channels.append(_resize_reference(scaled, out_size))
    return np.clip(np.stack(channels, axis=-1), 0.0, 255.0)


@pytest.mark.parametrize("frames,out_size", [
    (6, (32, 32)), (6, (6, core.N_JOINTS)), (1, (32, 32)), (9, (5, 7))])
def test_batch_matches_per_window_rendering(frames, out_size):
    rng = np.random.default_rng(frames)
    windows = rng.normal(0.0, 40.0, size=(5, frames, core.N_JOINTS, 2))
    windows[1, :, :, 0] = 3.25          # constant x channel
    windows[2] = -7.0                   # both channels constant
    windows[3] *= 1e-9                  # tiny spread
    images = poseimage.encode_pose_image(windows, out_size)
    assert images.shape == (5,) + tuple(out_size) + (2,)
    for window, image in zip(windows, images):
        assert np.array_equal(image, _render_reference(window, out_size))


def test_save_pgm(tmp_path):
    values = np.zeros((2, 3, 2))
    values[:, :, 0] = 255.0
    poseimage.save_pgm(values, tmp_path / "img")
    x = (tmp_path / "img_x.pgm").read_bytes()
    y = (tmp_path / "img_y.pgm").read_bytes()
    assert x.startswith(b"P5\n3 2\n255\n")
    assert x.endswith(b"\xff" * 6)
    assert y.endswith(b"\x00" * 6)
