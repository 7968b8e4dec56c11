"""Domain types: sequences, subsets, label sets, configuration."""

import dataclasses

import numpy as np
import pytest

from poselang import core, ntraj


def _seq(n=5):
    xy = np.zeros((n, core.N_JOINTS, 2))
    ones = np.ones((n, core.N_JOINTS))
    return core.PoseSequence(xy=xy, confidence=ones,
                             valid=ones.astype(bool), frame_rate=24.0,
                             source_id="s")


class TestPoseSequence:
    def test_shape_validation(self):
        with pytest.raises(core.ValidationError):
            core.PoseSequence(xy=np.zeros((3, 17, 2)),
                              confidence=np.ones((3, 17)),
                              valid=np.ones((3, 17), dtype=bool),
                              frame_rate=24.0)
        with pytest.raises(core.ValidationError):
            core.PoseSequence(xy=np.zeros((0, 18, 2)),
                              confidence=np.ones((0, 18)),
                              valid=np.ones((0, 18), dtype=bool),
                              frame_rate=24.0)
        with pytest.raises(core.ValidationError):
            dataclasses.replace(_seq(), frame_rate=0.0)
        with pytest.raises(core.ValidationError):
            core.PoseSequence(xy=np.zeros((3, 18, 2)),
                              confidence=np.ones((4, 18)),
                              valid=np.ones((3, 18), dtype=bool),
                              frame_rate=24.0)

    def test_arrays_frozen(self):
        seq = _seq()
        assert not seq.xy.flags.writeable
        with pytest.raises(ValueError):
            seq.xy[0, 0, 0] = 1.0

    def test_replace_and_pose(self):
        seq = _seq(3)
        xy = np.asarray(seq.xy).copy()
        xy[1, core.NOSE] = (7.0, 9.0)
        new = dataclasses.replace(seq, xy=xy)
        assert new.n_frames == 3
        assert new.source_id == "s"
        assert tuple(new.xy[1, core.NOSE]) == (7.0, 9.0)
        assert tuple(seq.xy[1, core.NOSE]) == (0.0, 0.0)


class TestJointSubset:
    def test_validation(self):
        core.JointSubset((0, 1, 5))
        with pytest.raises(core.ValidationError):
            core.JointSubset((1, 1))
        with pytest.raises(core.ValidationError):
            core.JointSubset((5, 0))  # unsorted
        with pytest.raises(core.ValidationError):
            core.JointSubset((0, 18))

    def test_builtin_subsets(self):
        assert (set(core.SUBSETS["upper"].indices)
                & set(core.SUBSETS["lower"].indices)) == {core.NECK}
        assert len(core.SUBSETS["upper"]) == 12
        assert len(core.SUBSETS["lower"]) == 7

    def test_view_projection(self):
        seq = _seq(4)
        xy = np.asarray(seq.xy).copy()
        xy[:, core.R_HIP] = (3.0, 4.0)
        seq = dataclasses.replace(seq, xy=xy)
        # Trajectory streams project the sequence onto the subset's joints.
        blocks = ntraj.raw_streams(seq, core.SUBSETS["lower"], (1,))
        assert blocks["posx"].values.shape == (4, 7)
        col = core.SUBSETS["lower"].indices.index(core.R_HIP)
        assert blocks["posx"].scopes[col] == (core.R_HIP,)
        assert np.all(blocks["posx"].values[:, col] == 3.0)
        assert np.all(blocks["posy"].values[:, col] == 4.0)


class TestLabelSet:
    def test_from_classes(self):
        lset = core.LabelSet.from_classes(["a", "b"])
        assert lset.names == ("a", "b", "background")
        assert lset.names[lset.background_index] == "background"
        assert lset.index("b") == 1
        with pytest.raises(core.ValidationError):
            lset.index("zzz")

    def test_validation(self):
        with pytest.raises(core.ValidationError):
            core.LabelSet(names=("a", "a"), background_index=0)
        with pytest.raises(core.ValidationError):
            core.LabelSet(names=("a", "b"), background_index=2)

    def test_load_label_sets(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("# comment\nupper,wave\nlower,lean\nupper,nod\n")
        sets = core.load_label_sets(path)
        assert sets["upper"].names == ("wave", "nod", "background")
        assert sets["lower"].names == ("lean", "background")
        path.write_text("sideways,wave\n")
        with pytest.raises(core.ValidationError):
            core.load_label_sets(path)


class TestPipelineConfig:
    def test_defaults_valid(self):
        cfg = core.PipelineConfig()
        assert cfg.torso_target == 240.0
        assert cfg.gaps == (1, 2, 3)

    def test_validation(self):
        with pytest.raises(core.ValidationError):
            core.PipelineConfig(window_len=0)
        with pytest.raises(core.ValidationError):
            core.PipelineConfig(gaps=())
        with pytest.raises(core.ValidationError):
            core.PipelineConfig(gaps=(1, -2))
        with pytest.raises(core.ValidationError):
            core.PipelineConfig(neck_smooth_radius=-1)

    def test_gaps_normalized(self):
        cfg = core.PipelineConfig(gaps=(3, 1, 3, 2))
        assert cfg.gaps == (1, 2, 3)

    def test_config_hash_sensitivity(self):
        a = core.PipelineConfig()
        b = core.PipelineConfig()
        c = dataclasses.replace(a, codebook_size=200)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 16

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("# tuned\ncodebook_size=20\ngaps=2,4\n"
                        "torso_target=120.5\npose_image_size=16,16\n")
        cfg = core.PipelineConfig.from_file(path)
        assert cfg.codebook_size == 20
        assert cfg.gaps == (2, 4)
        assert cfg.torso_target == 120.5
        assert cfg.pose_image_size == (16, 16)
        path.write_text("not_a_key=3\n")
        with pytest.raises(core.ValidationError):
            core.PipelineConfig.from_file(path)


@pytest.mark.parametrize("name", ["config.txt", "labels.csv"])
def test_text_inputs_must_be_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"knn_k=3\n\xff\n")
    read = core.PipelineConfig.from_file if name == "config.txt" \
        else core.load_label_sets
    with pytest.raises(core.ValidationError, match=f"{path}: not UTF-8"):
        read(path)
