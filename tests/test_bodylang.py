"""Sliding windows, chi-square KNN, and prediction plumbing."""

import numpy as np
import pytest

from helpers import make_sequence
from poselang import bodylang, core


def _store(features, labels, feature_kind=bodylang.FEATURE_NTRAJ_PLUS,
           n_classes=4):
    lset = core.LabelSet.from_classes([f"c{i}" for i in range(n_classes - 1)])
    return bodylang.ExemplarStore(
        track="upper", feature_kind=feature_kind,
        features=np.asarray(features, dtype=float),
        labels=np.asarray(labels, dtype=int), label_set=lset)


class TestWindows:
    def test_starts(self):
        assert np.array_equal(bodylang.window_starts(12, 6, 3), [0, 3, 6])
        assert np.array_equal(bodylang.window_starts(6, 6, 3), [0])
        with pytest.raises(bodylang.SequenceTooShort):
            bodylang.window_starts(5, 6, 3)


def test_chi_square():
    a = np.array([0.5, 0.5, 0.0])
    b = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    d = bodylang.chi_square(a, b)
    assert d[0] == pytest.approx(0.0, abs=1e-9)
    expect = 0.25 / (0.5 + bodylang.CHI2_EPS) * 2
    assert d[1] == pytest.approx(expect)


class TestKNN:
    def test_majority_vote(self):
        feats = [[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]]
        store = _store(feats, [1, 1, 2], feature_kind=bodylang.FEATURE_STCONV)
        cls, conf = bodylang.knn_classify(np.array([0.05, 0.0]), store, k=3)
        assert cls == 1
        assert 0.0 < conf <= 1.0

    def test_class_tie_mean_distance(self):
        # One near neighbor of class 2 vs one far neighbor of class 0:
        # equal counts, class 2 wins on mean distance.
        feats = [[0.0, 1.0], [0.0, 3.0]]
        store = _store(feats, [0, 2], feature_kind=bodylang.FEATURE_STCONV)
        cls, _ = bodylang.knn_classify(np.array([0.0, 2.5]), store, k=2)
        assert cls == 2

    def test_full_tie_lowest_class_id(self):
        feats = [[0.0, 1.0], [0.0, -1.0]]
        store = _store(feats, [3, 1], feature_kind=bodylang.FEATURE_STCONV)
        cls, _ = bodylang.knn_classify(np.array([0.0, 0.0]), store, k=2)
        assert cls == 1

    def test_k_clipped_and_empty(self):
        store = _store([[1.0, 0.0]], [0], feature_kind=bodylang.FEATURE_STCONV)
        cls, _ = bodylang.knn_classify(np.array([1.0, 0.0]), store, k=10)
        assert cls == 0
        empty = _store(np.zeros((0, 2)), [],
                       feature_kind=bodylang.FEATURE_STCONV)
        with pytest.raises(bodylang.EmptyStore):
            bodylang.knn_classify(np.array([0.0, 0.0]), empty, k=1)

    def test_dim_mismatch(self):
        store = _store([[1.0, 0.0]], [0])
        with pytest.raises(bodylang.KindMismatch):
            bodylang.knn_classify(np.zeros(3), store, k=1)


def test_store_warns_outside_exemplar_range():
    with pytest.warns(UserWarning, match="outside the 5..7 range"):
        _store([[0.0, 1.0]], [0])


class TestVideoNhot:
    def _pred(self, upper, lower):
        n = len(upper)
        return bodylang.BodyLanguageSequence(
            clip_id="c", upper=np.array(upper), lower=np.array(lower),
            upper_conf=np.ones(n), lower_conf=np.ones(n),
            window_len=6, stride=3)

    def test_min_windows_and_background(self):
        sets = {"upper": core.LabelSet.from_classes(["a", "b"]),
                "lower": core.LabelSet.from_classes(["p", "q"])}
        bg = sets["upper"].background_index
        pred = self._pred([0, 0, 1, bg, bg, bg], [1, 1, 1, 1, 0, 0])
        nhot = bodylang.video_nhot(pred, sets, min_windows=2)
        # upper: class 0 twice -> present; class 1 once -> absent;
        # background occurs 3 times but is dropped from the vector.
        assert np.array_equal(nhot["upper"], [1, 0])
        assert np.array_equal(nhot["lower"], [1, 1])


class TestManifests:
    # 24 frames: windows of 6 frames start at 0, 3, ..., 18.
    SEQS = {c: make_sequence(np.random.default_rng(0), n_frames=24)
            for c in ("clip", "clip001", "clip002")}

    def test_exemplar_round_trip(self, tmp_path):
        rows = [("upper", "clip001", 12, "wave"),
                ("lower", "clip002", 0, "lean"),
                ("lower", "clip002", 18, "lean")]
        path = tmp_path / "ex.csv"
        bodylang.save_exemplar_manifest(rows, path)
        assert bodylang.load_exemplar_manifest(
            path, self.SEQS, core.PipelineConfig()) == rows

    def test_every_set_needs_a_row(self, tmp_path):
        path = tmp_path / "ex.csv"
        path.write_text("upper,clip,0,wave\n")
        with pytest.raises(core.PoselangError, match="no rows for the lower"):
            bodylang.load_exemplar_manifest(path, self.SEQS,
                                            core.PipelineConfig())

    def test_bad_track(self, tmp_path):
        path = tmp_path / "ex.csv"
        path.write_text("middle,clip,0,wave\n")
        with pytest.raises(core.PoselangError):
            bodylang.load_exemplar_manifest(path, self.SEQS,
                                            core.PipelineConfig())

    @pytest.mark.parametrize("row,message", [
        ("upper,nope,0,wave", "unknown clip 'nope'"),
        ("upper,clip,21,wave", "window start 21 outside clip clip"),
        ("upper,clip,-3,wave", "window start -3 outside clip clip"),
        ("upper,clip,x3,wave", "window start 'x3' is not an integer"),
        ("upper,clip,0", "expected 4 columns"),
        ("upper,clip,4,wave", "not a multiple of window_stride 3"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "ex.csv"
        path.write_text(f"# set,clip,start,class\nupper,clip,3,wave\n{row}\n"
                        "lower,clip,0,lean\n")
        with pytest.raises(core.PoselangError) as err:
            bodylang.load_exemplar_manifest(path, self.SEQS,
                                            core.PipelineConfig())
        assert f"{path}:3: " in str(err.value)
        assert message in str(err.value)


def test_prediction_rows_format():
    sets = {"upper": core.LabelSet.from_classes(["a"]),
            "lower": core.LabelSet.from_classes(["p"])}
    pred = bodylang.BodyLanguageSequence(
        clip_id="c9", upper=np.array([0, 1]), lower=np.array([1, 0]),
        upper_conf=np.array([0.5, 0.25]), lower_conf=np.array([1.0, 0.75]),
        window_len=6, stride=3)
    rows = list(bodylang.prediction_rows(pred, sets))
    assert rows[0] == "c9,upper,0,a,0.500000"
    assert rows[1] == "c9,upper,1,background,0.250000"
    assert rows[2] == "c9,lower,0,background,1.000000"
    assert rows[3] == "c9,lower,1,p,0.750000"


def test_build_store_maps_names():
    lset = core.LabelSet.from_classes(["a", "b"])
    store = bodylang.build_store(
        "upper", bodylang.FEATURE_STCONV, lset,
        np.zeros((2, 3)), ["b", "background"], [("c0", 0), ("c0", 1)])
    assert np.array_equal(store.labels, [1, 2])
    assert store.provenance == [("c0", 0), ("c0", 1)]


class _StubEncoder:
    def embed(self, images):
        assert images.shape == (7, 32, 32, 2)
        emb = np.tile([3.0, 4.0], (len(images), 1))
        emb[1] = 0.0
        return emb


def test_stconv_features_l2_normalized():
    seq = make_sequence(np.random.default_rng(1), n_frames=24)
    feats = bodylang.stconv_window_features(seq, core.PipelineConfig(),
                                            _StubEncoder())
    assert np.allclose(feats[0], [0.6, 0.8])
    assert np.allclose(np.linalg.norm(np.delete(feats, 1, axis=0), axis=1),
                       1.0)
    assert np.all(feats[1] == 0.0)  # a zero embedding stays zero
