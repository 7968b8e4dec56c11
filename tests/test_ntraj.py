"""Trajectory streams and descriptors."""

import dataclasses
from math import comb

import numpy as np
import pytest

from poselang import core, ntraj
from helpers import descriptor_count, make_sequence


def test_stream_kind_order():
    assert ntraj.stream_kinds((2, 1), ntraj.NTRAJ_PLUS) == [
        "posx", "posy", "dx1", "dx2", "dy1", "dy2", "angle1", "angle2",
        "pair_orient", "inner_angle"]


class TestRawStreams:
    def test_shapes_and_counts(self):
        rng = np.random.default_rng(0)
        seq = make_sequence(rng, n_frames=20)
        blocks = ntraj.raw_streams(seq, core.SUBSETS["lower"], (1, 3))
        J = len(core.SUBSETS["lower"])
        census = {"posx": J, "posy": J, "pair_orient": comb(J, 2),
                  "inner_angle": 3 * comb(J, 3)}
        census.update({f"{k}{s}": J for k in ("dx", "dy", "angle")
                       for s in (1, 3)})
        assert sorted(blocks) == sorted(census)
        for key, blk in blocks.items():
            assert blk.values.shape[1] == census[key]
            assert len(blk.scopes) == census[key]
            expect_len = 20 - (blk.gap or 0)
            assert blk.values.shape[0] == expect_len

    def test_motion_values(self):
        # One joint drifting (+2, -1) per frame; everything else still.
        n = 8
        xy = np.tile([[10.0, 10.0]], (n, core.N_JOINTS, 1))
        xy[:, core.R_ANKLE, 0] += 2.0 * np.arange(n)
        xy[:, core.R_ANKLE, 1] -= 1.0 * np.arange(n)
        ones = np.ones((n, core.N_JOINTS))
        seq = core.PoseSequence(xy=xy, confidence=ones,
                                valid=ones.astype(bool), frame_rate=24.0)
        blocks = ntraj.raw_streams(seq, core.SUBSETS["lower"], (2,))
        col = core.SUBSETS["lower"].indices.index(core.R_ANKLE)
        assert np.allclose(blocks["dx2"].values[:, col], 4.0)
        assert np.allclose(blocks["dy2"].values[:, col], -2.0)
        assert np.allclose(blocks["angle2"].values[:, col],
                           np.arctan2(-2.0, 4.0))
        # Static joints get zero displacement AND a pinned zero angle.
        still = [c for c in range(len(core.SUBSETS["lower"])) if c != col]
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
            ntraj.raw_streams(seq, core.SUBSETS["lower"], (3,))

    def test_inner_angle_rigid_motion_invariant(self):
        rng = np.random.default_rng(2)
        seq = make_sequence(rng, n_frames=6)
        theta = 1.234
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        moved = dataclasses.replace(
            seq, xy=np.asarray(seq.xy) @ R.T + [17.0, -4.0])
        a = ntraj.raw_streams(seq, core.SUBSETS["upper"], (1,))["inner_angle"]
        b = ntraj.raw_streams(moved, core.SUBSETS["upper"], (1,))["inner_angle"]
        assert np.allclose(a.values, b.values, atol=1e-9)
        assert np.all(a.values >= 0.0) and np.all(a.values <= np.pi)


class TestDescriptors:
    def test_l1_normalized_or_degenerate(self):
        rng = np.random.default_rng(3)
        seq = make_sequence(rng, n_frames=16)
        blocks = ntraj.extract_descriptors(seq, core.SUBSETS["upper"], 5,
                                           (1, 2, 3))
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
        blocks = ntraj.extract_descriptors(seq, core.SUBSETS["lower"], 5, (1,))
        assert np.allclose(blocks["posx"].values, 0.2)
        assert np.allclose(blocks["posy"].values, -0.2)
        # Zero displacements are degenerate, not noise angles.
        assert blocks["dx1"].degenerate.all()
        assert blocks["angle1"].degenerate.all()

    def test_counts_match_brute_force(self):
        rng = np.random.default_rng(4)
        for i in range(10):
            T = int(rng.integers(2, 7))
            gaps = tuple(sorted(set(rng.integers(1, 5, size=2).tolist())))
            n = int(rng.integers(T + max(gaps), T + max(gaps) + 20))
            seq = make_sequence(rng, n_frames=n)
            subset = core.SUBSETS[core.TRACKS[i % 2]]
            blocks = ntraj.extract_descriptors(seq, subset, T, gaps)
            rows = ntraj.descriptor_rows(n, subset, T, gaps)
            assert sorted(rows) == sorted(blocks)
            for key, blk in blocks.items():
                s = blk.gap or 0
                # Brute force: count T-length windows of the (n - s)-long
                # stream one start frame at a time.
                brute = sum(1 for t0 in range(n) if t0 + T <= n - s)
                assert blk.values.shape[0] == brute
                assert descriptor_count(n, T, blk.gap) == brute
                assert rows[key] == brute * blk.values.shape[1]

    def test_kind_without_streams(self):
        # Two joints make one pair and no triple: the inner-angle block
        # keeps the start frames but holds no streams.
        seq = make_sequence(np.random.default_rng(7), n_frames=12)
        blocks = ntraj.extract_descriptors(seq, core.JointSubset((1, 8)), 5,
                                           (1,))
        assert blocks["pair_orient"].values.shape == (8, 1, 5)
        assert blocks["inner_angle"].values.shape == (8, 0, 5)
        assert blocks["inner_angle"].scopes == []
        rows = ntraj.descriptor_rows(12, core.JointSubset((1, 8)), 5, (1,))
        assert rows["pair_orient"] == 8 and rows["inner_angle"] == 0

    def test_too_short(self):
        rng = np.random.default_rng(5)
        seq = make_sequence(rng, n_frames=6)
        with pytest.raises(ntraj.SequenceTooShort):
            ntraj.extract_descriptors(seq, core.SUBSETS["lower"], 5, (3,))
        with pytest.raises(ntraj.SequenceTooShort):
            ntraj.descriptor_rows(6, core.SUBSETS["lower"], 5, (3,))
