"""Trajectory streams and descriptors."""

from math import comb

import numpy as np
import pytest

from poselang import core, ntraj
from helpers import make_sequence


def test_stream_kind_order():
    assert ntraj.stream_kinds((2, 1), ntraj.NTRAJ_PLUS) == [
        "posx", "posy", "dx1", "dx2", "dy1", "dy2", "angle1", "angle2",
        "pair_orient", "inner_angle"]
    assert ntraj.stream_kinds((1,), ntraj.NTRAJ) == [
        "posx", "posy", "dx1", "dy1", "angle1"]


class TestRawStreams:
    def test_shapes_and_counts(self):
        rng = np.random.default_rng(0)
        seq = make_sequence(rng, n_frames=20)
        blocks = ntraj.raw_streams(seq, core.LOWER_SUBSET, (1, 3))
        J = len(core.LOWER_SUBSET)
        census = ntraj.descriptor_census(J, (1, 3), ntraj.NTRAJ_PLUS)
        for key, blk in blocks.items():
            assert blk.values.shape[1] == census[key]
            assert len(blk.scopes) == census[key]
            expect_len = 20 - (blk.gap or 0)
            assert blk.values.shape[0] == expect_len
        assert census["pair_orient"] == comb(J, 2)
        assert census["inner_angle"] == 3 * comb(J, 3)

    def test_motion_values(self):
        # One joint drifting (+2, -1) per frame; everything else still.
        n = 8
        xy = np.tile([[10.0, 10.0]], (n, core.N_JOINTS, 1))
        xy[:, core.R_ANKLE, 0] += 2.0 * np.arange(n)
        xy[:, core.R_ANKLE, 1] -= 1.0 * np.arange(n)
        ones = np.ones((n, core.N_JOINTS))
        seq = core.PoseSequence(xy=xy, confidence=ones,
                                valid=ones.astype(bool), frame_rate=24.0)
        blocks = ntraj.raw_streams(seq, core.LOWER_SUBSET, (2,))
        col = core.LOWER_SUBSET.indices.index(core.R_ANKLE)
        assert np.allclose(blocks["dx2"].values[:, col], 4.0)
        assert np.allclose(blocks["dy2"].values[:, col], -2.0)
        assert np.allclose(blocks["angle2"].values[:, col],
                           np.arctan2(-2.0, 4.0))
        # Static joints get zero displacement AND a pinned zero angle.
        still = [c for c in range(len(core.LOWER_SUBSET)) if c != col]
        assert np.all(blocks["dx2"].values[:, still] == 0.0)
        assert np.all(blocks["angle2"].values[:, still] == 0.0)

    def test_angle_branch_wrapped(self):
        assert ntraj._wrap_angle(np.array([-np.pi])) == np.pi
        assert ntraj._wrap_angle(np.array([np.pi]))[0] == np.pi
        assert ntraj._wrap_angle(np.array([0.5]))[0] == 0.5

    def test_too_short(self):
        rng = np.random.default_rng(1)
        seq = make_sequence(rng, n_frames=3)
        with pytest.raises(ntraj.SequenceTooShort):
            ntraj.raw_streams(seq, core.LOWER_SUBSET, (3,))

    def test_inner_angle_rigid_motion_invariant(self):
        rng = np.random.default_rng(2)
        seq = make_sequence(rng, n_frames=6)
        theta = 1.234
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        moved = seq.replace(xy=np.asarray(seq.xy) @ R.T + [17.0, -4.0])
        a = ntraj.raw_streams(seq, core.UPPER_SUBSET, (1,))["inner_angle"]
        b = ntraj.raw_streams(moved, core.UPPER_SUBSET, (1,))["inner_angle"]
        assert np.allclose(a.values, b.values, atol=1e-9)
        assert np.all(a.values >= 0.0) and np.all(a.values <= np.pi)


class TestDescriptors:
    def test_l1_normalized_or_degenerate(self):
        rng = np.random.default_rng(3)
        seq = make_sequence(rng, n_frames=16)
        blocks = ntraj.extract_descriptors(seq, core.UPPER_SUBSET, 5, (1, 2, 3))
        for blk in blocks.values():
            sums = np.abs(blk.values).sum(axis=-1)
            assert np.allclose(sums[~blk.degenerate], 1.0, atol=1e-9)
            assert np.all(blk.values[blk.degenerate] == 0.0)

    def test_constant_stream_collapses_to_sign(self):
        # Per-trajectory L1 normalization maps any constant positive stream
        # to T copies of 1/T; only the sign pattern survives.
        n = 12
        xy = np.tile([[30.0, -40.0]], (n, core.N_JOINTS, 1))
        ones = np.ones((n, core.N_JOINTS))
        seq = core.PoseSequence(xy=xy, confidence=ones,
                                valid=ones.astype(bool), frame_rate=24.0)
        blocks = ntraj.extract_descriptors(seq, core.LOWER_SUBSET, 5, (1,))
        assert np.allclose(blocks["posx"].values, 0.2)
        assert np.allclose(blocks["posy"].values, -0.2)
        # Zero displacements are degenerate, not noise angles.
        assert blocks["dx1"].degenerate.all()
        assert blocks["angle1"].degenerate.all()

    def test_counts_match_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            T = int(rng.integers(2, 7))
            gaps = tuple(sorted(set(rng.integers(1, 5, size=2).tolist())))
            n = int(rng.integers(T + max(gaps), T + max(gaps) + 20))
            seq = make_sequence(rng, n_frames=n)
            blocks = ntraj.extract_descriptors(seq, core.LOWER_SUBSET, T, gaps)
            for key, blk in blocks.items():
                s = blk.gap or 0
                # Brute force: count T-length windows of the (n - s)-long
                # stream one start frame at a time.
                brute = sum(1 for t0 in range(n) if t0 + T <= n - s)
                assert blk.values.shape[0] == brute
                assert ntraj.descriptor_count(n, T, blk.gap) == brute
                assert np.array_equal(blk.start_frames, np.arange(brute))

    def test_too_short(self):
        rng = np.random.default_rng(5)
        seq = make_sequence(rng, n_frames=6)
        with pytest.raises(ntraj.SequenceTooShort):
            ntraj.extract_descriptors(seq, core.LOWER_SUBSET, 5, (3,))

    def test_iter_descriptors_round_trip(self):
        rng = np.random.default_rng(6)
        seq = make_sequence(rng, n_frames=10)
        blocks = ntraj.extract_descriptors(seq, core.LOWER_SUBSET, 5, (1,))
        descs = list(ntraj.iter_descriptors(blocks))
        total = sum(blk.values.shape[0] * blk.values.shape[1]
                    for blk in blocks.values())
        assert len(descs) == total
        d = descs[0]
        blk = blocks["posx"]
        assert d.stream.kind == "posx"
        assert np.array_equal(d.values, blk.values[0, 0])
        assert d.degenerate == bool(blk.degenerate[0, 0])
