"""Repair, torso normalization, and reference centering."""

import dataclasses

import numpy as np
import pytest

from poselang import core, preprocess
from helpers import make_sequence


def _seq_with_validity(xy, valid):
    n = xy.shape[0]
    return core.PoseSequence(xy=xy, confidence=np.where(valid, 0.9, 0.0),
                             valid=valid, frame_rate=24.0, source_id="t")


class TestRepair:
    def test_interpolates_gap(self):
        rng = np.random.default_rng(0)
        seq = make_sequence(rng, n_frames=5)
        xy = np.asarray(seq.xy).copy()
        valid = np.asarray(seq.valid).copy()
        j = core.R_WRIST
        xy[1:4, j] = 0.0
        valid[1:4, j] = False
        out, report = preprocess.repair_joints(_seq_with_validity(xy, valid))
        # Linear between the surrounding valid frames 0 and 4.
        expect = np.linspace(xy[0, j], xy[4, j], 5)
        assert np.allclose(np.asarray(out.xy)[:, j], expect)
        assert out.valid.all()
        assert report.frames_repaired[j] == 3
        assert report.total_repaired == 3
        assert list(report.lines()) == [f"t,{j},3"]

    def test_edge_hold(self):
        rng = np.random.default_rng(1)
        seq = make_sequence(rng, n_frames=4)
        xy = np.asarray(seq.xy).copy()
        valid = np.asarray(seq.valid).copy()
        j = core.L_ANKLE
        valid[0, j] = False
        valid[3, j] = False
        out, _ = preprocess.repair_joints(_seq_with_validity(xy, valid))
        assert np.allclose(np.asarray(out.xy)[0, j], xy[1, j])
        assert np.allclose(np.asarray(out.xy)[3, j], xy[2, j])

    def test_fully_missing_joint_uses_neck(self):
        rng = np.random.default_rng(2)
        seq = make_sequence(rng, n_frames=4)
        xy = np.asarray(seq.xy).copy()
        valid = np.asarray(seq.valid).copy()
        valid[:, core.NOSE] = False
        valid[1:3, core.NECK] = False  # neck itself needs repair first
        out, report = preprocess.repair_joints(_seq_with_validity(xy, valid))
        assert core.NOSE in report.neck_substituted
        assert np.allclose(np.asarray(out.xy)[:, core.NOSE],
                           np.asarray(out.xy)[:, core.NECK])

    def test_unrepairable(self):
        rng = np.random.default_rng(3)
        seq = make_sequence(rng, n_frames=3)
        valid = np.asarray(seq.valid).copy()
        valid[:, core.NECK] = False
        with pytest.raises(preprocess.Unrepairable):
            preprocess.repair_joints(
                _seq_with_validity(np.asarray(seq.xy).copy(), valid))


class TestTorsoScale:
    def test_median_hits_target(self):
        rng = np.random.default_rng(4)
        seq = make_sequence(rng, n_frames=9)
        scaled, scale = preprocess.torso_scale(seq, 240.0)
        med = float(np.median(preprocess.torso_lengths(scaled)))
        assert med == pytest.approx(240.0, abs=1e-9)
        assert scale == pytest.approx(
            240.0 / np.median(preprocess.torso_lengths(seq)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        seq = make_sequence(rng, n_frames=6)
        bigger = dataclasses.replace(seq, xy=np.asarray(seq.xy) * 3.25)
        a, _ = preprocess.torso_scale(seq, 240.0)
        b, _ = preprocess.torso_scale(bigger, 240.0)
        assert np.allclose(np.asarray(a.xy), np.asarray(b.xy))

    def test_degenerate(self):
        xy = np.zeros((3, core.N_JOINTS, 2))
        ones = np.ones((3, core.N_JOINTS))
        seq = core.PoseSequence(xy=xy, confidence=ones,
                                valid=ones.astype(bool), frame_rate=24.0)
        with pytest.raises(preprocess.DegenerateTorso):
            preprocess.torso_scale(seq, 240.0)


class TestCentering:
    def test_matches_direct_window_mean(self):
        rng = np.random.default_rng(6)
        seq = make_sequence(rng, n_frames=11)
        neck = np.asarray(seq.xy)[:, core.NECK].copy()
        out = preprocess.center_on_reference(seq, radius=2)
        for t in range(11):
            lo, hi = max(t - 2, 0), min(t + 3, 11)
            ref = neck[lo:hi].mean(axis=0)
            assert np.allclose(np.asarray(out.xy)[t],
                               np.asarray(seq.xy)[t] - ref)

    def test_radius_zero_pins_neck(self):
        rng = np.random.default_rng(7)
        seq = make_sequence(rng, n_frames=8)
        out = preprocess.center_on_reference(seq, radius=0)
        assert np.allclose(np.asarray(out.xy)[:, core.NECK], 0.0)

    def test_static_neck_pinned(self):
        # A perfectly still neck must land at the origin to within rounding;
        # a larger residual would give static joints spurious motion
        # directions through atan2.
        xy = np.tile([[50.0, 60.0]], (10, core.N_JOINTS, 1))
        xy[:, core.NECK] = (12.34567, -9.87654)
        ones = np.ones((10, core.N_JOINTS))
        seq = core.PoseSequence(xy=xy, confidence=ones,
                                valid=ones.astype(bool), frame_rate=24.0)
        out = preprocess.center_on_reference(seq, radius=2)
        assert np.all(np.abs(np.asarray(out.xy)[:, core.NECK]) < 1e-12)


def test_preprocess_composite(config):
    rng = np.random.default_rng(8)
    seq = make_sequence(rng, n_frames=12)
    valid = np.asarray(seq.valid).copy()
    valid[3, core.R_WRIST] = False
    seq = _seq_with_validity(np.asarray(seq.xy).copy(), valid)
    out, report = preprocess.preprocess(seq, config)
    assert report.frames_repaired == {core.R_WRIST: 1}
    med = float(np.median(preprocess.torso_lengths(out)))
    assert med == pytest.approx(config.torso_target, abs=1e-6)
