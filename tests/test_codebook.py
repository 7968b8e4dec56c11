"""Restarted k-means, quantization, and window histograms."""

import numpy as np
import pytest

from poselang import codebook as cb, core
from poselang.ntraj import DescriptorBlock


def quantize(descriptor, codebook):
    """One descriptor's nearest centroid by direct distance, lowest index
    on ties: the oracle for quantize_batch."""
    d2 = np.square(codebook.centroids - descriptor).sum(axis=1)
    return int(np.argmin(d2))


def _clustered_points(rng, centers, per=30, spread=0.05):
    pts = [c + rng.normal(0.0, spread, size=(per, len(c))) for c in centers]
    return np.concatenate(pts)


class TestKMeans:
    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [0.0, 10.0], [10.0, 0.0]])
        pts = _clustered_points(rng, centers)
        book = cb.kmeans_restarts(pts, 3, restarts=5, seed=0, stream_kind="k")
        got = book.centroids[np.lexsort(book.centroids.T[::-1])]
        assert np.allclose(got, centers, atol=0.1)
        assert book.stream_kind == "k"
        assert book.size == 3

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(200, 4))
        a = cb.kmeans_restarts(pts, 5, restarts=3, seed=7)
        b = cb.kmeans_restarts(pts, 5, restarts=3, seed=7)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_duplicates_equal_weighted_run(self):
        # Repeating every point must not move the centroids: the weighted
        # unique-point updates match plain Lloyd over the duplicated data.
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 3))
        tripled = np.concatenate([pts, pts, pts])
        a = cb.kmeans_restarts(pts, 4, restarts=4, seed=3)
        b = cb.kmeans_restarts(tripled, 4, restarts=4, seed=3)
        assert np.allclose(a.centroids, b.centroids)
        assert b.inertia == pytest.approx(3 * a.inertia, rel=1e-9)

    def test_too_few_distinct_points(self):
        # Fewer distinct points than clusters: one centroid each.
        pts = np.tile([[1.0, 2.0], [3.0, 4.0]], (10, 1))
        book = cb.kmeans_restarts(pts, 3, restarts=2, seed=0)
        assert np.array_equal(book.centroids, [[1.0, 2.0], [3.0, 4.0]])
        assert book.inertia == 0.0
        with pytest.raises(cb.TooFewPoints):
            cb.kmeans_restarts(np.zeros((0, 2)), 3, restarts=2, seed=0)

    def test_rising_inertia_is_an_internal_error(self, monkeypatch):
        # Lloyd's inertia never rises; inflate each distance pass to force it.
        assign, passes = cb._assign, []

        def inflated(points, centroids):
            labels, d2 = assign(points, centroids)
            passes.append(1)
            return labels, d2 * 10.0 ** len(passes)

        monkeypatch.setattr(cb, "_assign", inflated)
        pts = np.random.default_rng(5).normal(size=(30, 2))
        with pytest.raises(core.InvariantViolated,
                           match="k-means inertia increased"):
            cb.kmeans_restarts(pts, 3, restarts=1, seed=0)

    def test_inertia_is_true_cost(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(60, 2))
        book = cb.kmeans_restarts(pts, 3, restarts=2, seed=0)
        labels = cb.quantize_batch(pts, book)
        cost = sum(np.square(p - book.centroids[l]).sum()
                   for p, l in zip(pts, labels))
        assert book.inertia == pytest.approx(cost, rel=1e-9)


class TestQuantize:
    def test_nearest_and_tie_break(self):
        book = cb.Codebook("k", np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 5.0]]),
                           inertia=0.0)
        # The second query lies exactly between centroids 0 and 1: the
        # lowest index wins.
        queries = np.array([[1.9, 0.1], [1.0, 0.0]])
        assert list(cb.quantize_batch(queries, book)) == [1, 0]
        assert [quantize(q, book) for q in queries] == [1, 0]

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        book = cb.Codebook("k", rng.normal(size=(6, 3)), inertia=0.0)
        queries = rng.normal(size=(50, 3))
        batch = cb.quantize_batch(queries, book)
        assert np.array_equal(batch, [quantize(q, book) for q in queries])

    def test_dimension_mismatch(self):
        book = cb.Codebook("k", np.zeros((2, 3)), inertia=0.0)
        with pytest.raises(cb.DimensionMismatch):
            cb.quantize_batch(np.zeros((1, 4)), book)


class TestWindowFeature:
    def _blocks(self):
        # Two streams, five start frames, T=2 descriptors chosen so each
        # lands exactly on one of two centroids.
        vals = np.zeros((5, 2, 2))
        vals[:, 0] = [1.0, 0.0]   # stream 0 always centroid 0
        vals[:, 1] = [0.0, 1.0]   # stream 1 always centroid 1
        vals[4, 1] = [1.0, 0.0]
        blk = DescriptorBlock("posx", None, vals, [(0,), (1,)],
                              np.zeros((5, 2), dtype=bool))
        return {"posx": blk}

    def _books(self):
        cents = np.array([[1.0, 0.0], [0.0, 1.0]])
        return {"posx": cb.Codebook("posx", cents, inertia=0.0)}

    def test_histograms(self):
        feats = cb.window_feature(self._blocks(), self._books(),
                                  np.array([0, 3]), window_len=3, kind_order=["posx"])
        assert feats.shape == (2, 2)
        # Window 0 covers starts 0..2: three centroid-0 and three centroid-1
        # descriptors -> [0.5, 0.5].
        assert np.allclose(feats[0], [0.5, 0.5])
        # Window 1 covers starts 3..4: counts (3, 1) -> normalized.
        assert np.allclose(feats[1], [0.75, 0.25])

    def test_empty_window_zero_block(self):
        blocks = self._blocks()
        feats = cb.window_feature(blocks, self._books(), np.array([90]),
                                  window_len=3, kind_order=["posx"])
        assert np.all(feats == 0.0)

    def test_missing_codebook(self):
        with pytest.raises(cb.MissingCodebook):
            cb.window_feature(self._blocks(), {}, np.array([0]), 3, ["posx"])


class TestArtifacts:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        book = cb.Codebook("dx1", rng.uniform(-1.0, 1.0, size=(4, 5)),
                           inertia=1.25, seed=9)
        path = tmp_path / "dx1.cbk"
        cb.save_codebook(book, path, config_hash="abc123")
        back = cb.load_codebook(path, expect_config_hash="abc123")
        assert back.stream_kind == "dx1"
        assert back.seed == 9
        assert back.inertia == 1.25
        assert np.array_equal(back.centroids, book.centroids)

    def test_hash_and_magic_guards(self, tmp_path):
        book = cb.Codebook("dx1", np.zeros((1, 2)), inertia=0.0)
        path = tmp_path / "a.cbk"
        cb.save_codebook(book, path, config_hash="right")
        with pytest.raises(cb.PoselangError):
            cb.load_codebook(path, expect_config_hash="wrong")
        path.write_bytes(b'{"magic": "nope"}\n')
        with pytest.raises(cb.PoselangError):
            cb.load_codebook(path)

    def test_save_is_deterministic(self, tmp_path):
        book = cb.Codebook("posy", np.arange(6.0).reshape(2, 3), inertia=0.5)
        cb.save_codebook(book, tmp_path / "a", config_hash="h")
        cb.save_codebook(book, tmp_path / "b", config_hash="h")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
