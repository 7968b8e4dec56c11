"""Keypoint-file parsing and manifest loading."""

import json

import numpy as np
import pytest

from poselang import core, ingest


def _doc(points, extra_people=()):
    people = [{"pose_keypoints_2d": points}]
    people += [{"pose_keypoints_2d": p} for p in extra_people]
    return json.dumps({"people": people})


def _keypoints(conf=0.9, x0=100.0):
    pts = []
    for j in range(core.N_JOINTS):
        pts += [x0 + j, 200.0 + j, conf]
    return pts


class TestParseFrame:
    def test_valid_frame(self):
        pose = ingest.parse_keypoint_frame(_doc(_keypoints()))
        assert pose.xy.shape == (18, 2)
        assert pose.valid.all()
        assert pose.xy[3, 0] == 103.0

    def test_picks_highest_mean_confidence_person(self):
        weak = _keypoints(conf=0.2, x0=0.5)
        strong = _keypoints(conf=0.8, x0=500.0)
        pose = ingest.parse_keypoint_frame(_doc(weak, [strong]))
        assert pose.xy[0, 0] == 500.0

    def test_low_confidence_and_origin_marked_invalid(self):
        pts = _keypoints()
        pts[0:3] = [0.0, 0.0, 0.9]     # joint 0 at the origin sentinel
        pts[3 * 5 + 2] = 0.05          # joint 5 below the confidence floor
        pose = ingest.parse_keypoint_frame(_doc(pts))
        assert not pose.valid[0]
        assert not pose.valid[5]
        assert pose.valid[1]

    def test_malformed(self):
        with pytest.raises(ingest.MalformedFile):
            ingest.parse_keypoint_frame(b"{not json")
        with pytest.raises(ingest.MalformedFile):
            ingest.parse_keypoint_frame(json.dumps({"nope": []}))
        with pytest.raises(ingest.MalformedFile):
            ingest.parse_keypoint_frame(_doc([1.0, 2.0, 0.5]))
        with pytest.raises(ingest.NoPerson):
            ingest.parse_keypoint_frame(json.dumps({"people": []}))


class TestLoadSequence:
    def _write(self, d, idx, text=None):
        (d / f"frame_{idx:06d}.json").write_text(text or _doc(_keypoints()))

    def test_ordering_and_gap_fill(self, tmp_path):
        d = tmp_path / "clip"
        d.mkdir()
        for idx in (0, 1, 3):  # frame 2 missing
            self._write(d, idx)
        seq = ingest.load_sequence(d, 24.0)
        assert seq.n_frames == 4
        assert not seq.valid[2].any()
        assert seq.valid[0].all() and seq.valid[3].all()
        assert seq.frame_rate == 24.0
        assert seq.source_id == "clip"

    def test_person_less_frame_becomes_invalid(self, tmp_path):
        d = tmp_path / "clip"
        d.mkdir()
        self._write(d, 0)
        self._write(d, 1, json.dumps({"people": []}))
        seq = ingest.load_sequence(d, 24.0)
        assert seq.n_frames == 2
        assert not seq.valid[1].any()

    def test_errors(self, tmp_path):
        with pytest.raises(ingest.EmptySequence):
            ingest.load_sequence(tmp_path / "missing", 24.0)
        d = tmp_path / "dup"
        d.mkdir()
        self._write(d, 1)
        (d / "extra_000001.json").write_text(_doc(_keypoints()))
        with pytest.raises(ingest.MixedSchema):
            ingest.load_sequence(d, 24.0)
        d2 = tmp_path / "noidx"
        d2.mkdir()
        (d2 / "frame.json").write_text(_doc(_keypoints()))
        with pytest.raises(ingest.MixedSchema):
            ingest.load_sequence(d2, 24.0)


class TestManifest:
    LINE = "c000,clips/c000,24,train,upper:wave|nod;lower:;emotion:e00,gt/c000.csv"

    def test_load(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("# header comment\n" + self.LINE + "\n"
                        "c001,clips/c001,30,test,upper:;lower:lean\n")
        man = ingest.load_manifest(path)
        assert len(man.entries) == 2
        e = man.by_id("c000")
        assert e.split == "train"
        assert e.labels["upper"] == ("wave", "nod")
        assert e.labels["lower"] == ()
        assert e.labels["emotion"] == ("e00",)
        assert e.window_labels_path == "gt/c000.csv"
        assert man.by_id("c001").window_labels_path is None
        assert [x.clip_id for x in man.split("test")] == ["c001"]
        with pytest.raises(KeyError):
            man.by_id("zzz")

    def test_label_validation(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(self.LINE + "\n")
        sets = {"upper": core.LabelSet.from_classes(["wave", "nod"]),
                "lower": core.LabelSet.from_classes(["lean"])}
        ingest.load_manifest(path, sets)
        bad = {"upper": core.LabelSet.from_classes(["other"]),
               "lower": sets["lower"]}
        with pytest.raises(ingest.UnknownLabel):
            ingest.load_manifest(path, bad)

    def test_structural_errors(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("")
        with pytest.raises(ingest.EmptyManifest):
            ingest.load_manifest(path)
        path.write_text(self.LINE + "\n" + self.LINE + "\n")
        with pytest.raises(ingest.DuplicateClipId):
            ingest.load_manifest(path)
        path.write_text("c0,p,24,holdout,upper:\n")
        with pytest.raises(ingest.MixedSchema):
            ingest.load_manifest(path)
        path.write_text("c0,p,24\n")
        with pytest.raises(ingest.MixedSchema):
            ingest.load_manifest(path)

    @pytest.mark.parametrize("fps", ["abc", "", "nan", "inf", "0", "-24"])
    def test_bad_fps_names_the_line(self, tmp_path, fps):
        path = tmp_path / "manifest.csv"
        path.write_text(self.LINE + "\n" + f"c001,clips/c001,{fps},test,upper:\n")
        with pytest.raises(ingest.MalformedFile, match="manifest.csv line 2"):
            ingest.load_manifest(path)


def test_load_window_labels(tmp_path):
    path = tmp_path / "gt.csv"
    path.write_text("# w,upper,lower\n0,wave,lean\n1,background,lean\n")
    rows = ingest.load_window_labels(path)
    assert rows == [("wave", "lean"), ("background", "lean")]
    path.write_text("1,wave,lean\n")
    with pytest.raises(ingest.MalformedFile, match="gt.csv line 1"):
        ingest.load_window_labels(path)


@pytest.mark.parametrize("text, line", [
    ("0,wave,lean\n1,wave\n", 2),          # short row
    ("0,wave,lean,extra\n", 1),            # long row
    ("# w,upper,lower\nx,wave,lean\n", 2),  # non-integer index
    ("0,wave,lean\n2,wave,lean\n", 2),     # out-of-order index
])
def test_malformed_window_labels_name_the_line(tmp_path, text, line):
    path = tmp_path / "gt.csv"
    path.write_text(text)
    with pytest.raises(ingest.MalformedFile, match=f"gt.csv line {line}:"):
        ingest.load_window_labels(path)
