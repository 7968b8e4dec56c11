"""The vectorized stage-1 code against the loops it replaced (see
`helpers.py`): the same bytes, not merely close values, on noisy clips
and on hand-made ties."""

import dataclasses

import numpy as np
import pytest

import helpers
from poselang import bodylang, codebook as cb, core, neural, ntraj, pipeline, synth


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def noisy_ds(tmp_path_factory):
    """A noisy 3-clips-per-split dataset; nearly every descriptor is
    distinct."""
    config = dataclasses.replace(core.PipelineConfig(), codebook_size=50,
                                 codebook_restarts=1, codebook_sample_cap=1000)
    root = tmp_path_factory.mktemp("noisy_dataset")
    spec = synth.ScenarioSpec(clips_per_split=3, noise_std=1.5,
                              dropout_rate=0.05)
    synth.generate_dataset(spec, root, config)
    return pipeline.load_dataset(root / "manifest.csv", config)


@pytest.fixture(scope="module")
def books(noisy_ds):
    return {t: pipeline.train_codebooks(noisy_ds, t) for t in core.TRACKS}


def _all_clips(ds):
    return [ds.sequences[e.clip_id] for e in ds.manifest.entries]


def _pool(ds, track, kind):
    """Every training descriptor of one stream kind, as k-means sees it."""
    subset = core.SUBSETS[track]
    return np.concatenate([
        ntraj.extract_descriptors(ds.sequences[e.clip_id], subset,
                                  ds.config.traj_len, ds.config.gaps
                                  )[kind].values.reshape(-1, ds.config.traj_len)
        for e in ds.manifest.split("train")])


class TestLloyd:
    @pytest.mark.parametrize("kind", ["dx1", "pair_orient", "inner_angle"])
    def test_noisy_descriptors(self, noisy_ds, kind):
        unique, counts = np.unique(_pool(noisy_ds, "upper", kind)[:1500],
                                   axis=0, return_counts=True)
        for r in range(2):
            want, want_inertia, _ = helpers.lloyd_masked(
                unique, counts, 20, np.random.default_rng((7, r)))
            got, got_inertia = cb._lloyd(unique, counts, 20,
                                         np.random.default_rng((7, r)))
            assert_same_bytes(got, want)
            assert got_inertia == want_inertia

    def test_empty_cluster_reseed(self):
        # With this seed, one of the four clusters loses all its points in
        # the second iteration and is reseeded at the farthest point.
        points = np.array([[4.0, 4.0], [0.0, 3.0], [3.0, 2.0], [3.0, 2.0],
                           [1.0, 2.0], [3.0, 3.0], [1.0, 1.0], [1.0, 1.0],
                           [0.0, 0.0]])
        unique, counts = np.unique(points, axis=0, return_counts=True)
        want, want_inertia, reseeds = helpers.lloyd_masked(
            unique, counts, 4, np.random.default_rng((1073, 0)))
        assert reseeds >= 1
        got, got_inertia = cb._lloyd(unique, counts, 4,
                                     np.random.default_rng((1073, 0)))
        assert_same_bytes(got, want)
        assert got_inertia == want_inertia
        book = cb.kmeans_restarts(points, 4, restarts=1, seed=1073)
        assert_same_bytes(book.centroids, want)

    def test_single_cluster(self, noisy_ds):
        unique, counts = np.unique(_pool(noisy_ds, "lower", "posx"), axis=0,
                                   return_counts=True)
        want, want_inertia, _ = helpers.lloyd_masked(
            unique, counts, 1, np.random.default_rng(3))
        got, got_inertia = cb._lloyd(unique, counts, 1,
                                     np.random.default_rng(3))
        assert_same_bytes(got, want)
        assert got_inertia == want_inertia


class TestQuantize:
    def test_noisy_descriptors_across_row_blocks(self, noisy_ds, books):
        for kind in ("angle2", "inner_angle"):
            points = _pool(noisy_ds, "upper", kind)
            assert len(points) > 2 * cb.ROW_BLOCK
            book = books["upper"][kind]
            want, _ = helpers.assign_unblocked(points, book.centroids)
            assert_same_bytes(cb.quantize_batch(points, book), want)

    def test_ties_and_clamped_zeros(self):
        rng = np.random.default_rng(11)
        base = rng.uniform(-1.0, 1.0, size=(6, 5))
        base /= np.abs(base).sum(axis=1, keepdims=True)
        # Every centroid appears twice, so a query on a centroid is at
        # distance 0 from two of them; the expanded form rounds some of
        # those below 0, and the clamp makes them exact ties.
        centroids = np.concatenate([base, base])
        book = cb.Codebook("k", centroids, inertia=0.0)
        queries = np.concatenate([base[::-1], base,
                                  (base[0] + base[1])[None] / 2.0])
        raw = (np.square(queries).sum(axis=1)[:, None]
               + np.square(centroids).sum(axis=1)[None, :]
               - 2.0 * queries @ centroids.T)
        assert (raw < 0.0).any()
        want, _ = helpers.assign_unblocked(queries, centroids)
        got = cb.quantize_batch(queries, book)
        assert_same_bytes(got, want)
        assert list(got[:12]) == [5, 4, 3, 2, 1, 0, 0, 1, 2, 3, 4, 5]

    def test_size_one_codebook(self, noisy_ds):
        points = _pool(noisy_ds, "upper", "posy")
        book = cb.Codebook("posy", points[:1].copy(), inertia=0.0)
        want, _ = helpers.assign_unblocked(points, book.centroids)
        assert_same_bytes(cb.quantize_batch(points, book), want)
        assert not want.any()


class TestWindowFeature:
    def _check(self, ds, books, starts_of):
        order = ntraj.stream_kinds(ds.config.gaps)
        for seq in _all_clips(ds):
            starts = starts_of(bodylang.window_starts(
                seq.n_frames, ds.config.window_len, ds.config.window_stride))
            for track in core.TRACKS:
                blocks = ntraj.extract_descriptors(
                    seq, core.SUBSETS[track], ds.config.traj_len,
                    ds.config.gaps)
                assert_same_bytes(
                    cb.window_feature(blocks, books[track], starts,
                                      ds.config.window_len, order),
                    helpers.window_feature_per_window(
                        blocks, books[track], starts, ds.config.window_len,
                        order))

    def test_every_window_of_noisy_clips(self, noisy_ds, books):
        self._check(noisy_ds, books, lambda starts: starts)

    def test_windows_past_a_kinds_last_start(self, noisy_ds, books):
        # dx3 has three fewer start frames than posx; windows from the
        # clip's end on hold none of some kinds' descriptors, or none at all.
        self._check(noisy_ds, books, lambda starts: np.concatenate(
            [starts[-3:], starts[-1:] + 3, starts[-1:] + 50]))

    def test_last_window_only(self, noisy_ds, books):
        self._check(noisy_ds, books, lambda starts: starts[-1:])

    def test_size_one_codebooks(self, noisy_ds):
        seq = _all_clips(noisy_ds)[0]
        order = ntraj.stream_kinds(noisy_ds.config.gaps)
        blocks = ntraj.extract_descriptors(seq, core.SUBSETS["upper"],
                                           noisy_ds.config.traj_len,
                                           noisy_ds.config.gaps)
        ones = {kind: cb.Codebook(kind, blk.values[0, :1].copy(), inertia=0.0)
                for kind, blk in blocks.items()}
        L = noisy_ds.config.window_len
        starts = bodylang.window_starts(seq.n_frames, L,
                                        noisy_ds.config.window_stride)
        assert_same_bytes(
            cb.window_feature(blocks, ones, starts, L, order),
            helpers.window_feature_per_window(blocks, ones, starts, L, order))


class TestClipFeatureSubsets:
    """NTraj+ quantizes only the descriptors a window subset covers; each
    subset row must keep the bytes it has in the full-clip features."""

    def test_every_clip_of_a_noisy_dataset(self, noisy_ds, books):
        config = noisy_ds.config
        rng = np.random.default_rng(5)
        for seq in _all_clips(noisy_ds):
            full = bodylang.clip_features(seq, bodylang.FEATURE_NTRAJ_PLUS,
                                          config, books)
            K = len(full["upper"])
            subsets = [[0], [K - 1], list(range(0, K, 4)), [1, K // 2, K - 2],
                       sorted(rng.choice(K, size=3, replace=False))]
            for windows in subsets:
                part = bodylang.clip_features(
                    seq, bodylang.FEATURE_NTRAJ_PLUS, config, books,
                    windows=windows)
                for track in core.TRACKS:
                    assert_same_bytes(part[track], full[track][windows])


class TestInnerAngles:
    def test_noisy_clips(self, noisy_ds):
        for seq in _all_clips(noisy_ds):
            for subset in (core.SUBSETS["upper"], core.SUBSETS["lower"]):
                got = ntraj.raw_streams(seq, subset, (1, 2, 3))["inner_angle"]
                vals, scopes = helpers.inner_angles_loop(seq, subset)
                assert_same_bytes(got.values, vals)
                assert got.scopes == scopes

    def test_coincident_and_signed_zero_joints(self):
        seq = helpers.make_sequence(np.random.default_rng(8), n_frames=12)
        joints = core.SUBSETS["upper"].indices
        # Joints on top of each other and on the axes give zero vectors and
        # dot products of either sign of zero.
        xy = seq.xy.copy()
        xy[:4, joints[1]] = xy[:4, joints[0]]
        xy[4:8, joints[:3]] = 0.0
        xy[4:8, joints[3], 0] = -0.0
        xy[8:, joints[2], 1] = xy[8:, joints[0], 1]
        seq = dataclasses.replace(seq, xy=xy)
        got = ntraj.raw_streams(seq, core.SUBSETS["upper"], (1,))["inner_angle"]
        vals, _ = helpers.inner_angles_loop(seq, core.SUBSETS["upper"])
        assert_same_bytes(got.values, vals)


class TestPredict:
    def _stores(self, ds, feature_kind, models):
        rows = synth.pick_exemplars(ds.manifest, ds.gt, ds.label_sets,
                                    ds.config.window_stride, seed=ds.config.seed)
        return pipeline.build_stores(ds, rows, feature_kind, models)

    def _check(self, ds, stores, models):
        for seq in _all_clips(ds):
            pred = bodylang.predict_sequence(seq, stores, ds.config, models)
            want = helpers.predict_per_window(seq, stores, ds.config, models)
            for track in core.TRACKS:
                assert_same_bytes(pred.ids[track], want[track][0])
                assert_same_bytes(pred.conf[track], want[track][1])

    def test_ntraj_noisy(self, noisy_ds, books):
        stores = self._stores(noisy_ds, bodylang.FEATURE_NTRAJ_PLUS, books)
        self._check(noisy_ds, stores, books)

    def test_stconv_euclidean(self, noisy_ds):
        encoders = {t: neural.ConvEncoder(
                        in_hw=noisy_ds.config.pose_image_size, in_channels=2,
                        n_classes=len(noisy_ds.label_sets[t]), seed=i)
                    for i, t in enumerate(core.TRACKS)}
        stores = self._stores(noisy_ds, bodylang.FEATURE_STCONV, encoders)
        self._check(noisy_ds, stores, encoders)

    @pytest.mark.parametrize("feature_kind", [bodylang.FEATURE_NTRAJ_PLUS,
                                              bodylang.FEATURE_STCONV])
    def test_neighbor_and_class_ties(self, feature_kind):
        lset = core.LabelSet.from_classes(["a", "b", "c"])
        exemplars = np.array([[0.2, 0.8], [0.8, 0.2], [0.2, 0.8], [0.5, 0.5],
                              [0.8, 0.2], [0.5, 0.5], [0.0, 1.0]])
        store = bodylang.ExemplarStore(
            track="upper", feature_kind=feature_kind, features=exemplars,
            labels=[0, 1, 2, 3, 0, 1, 2], label_set=lset)
        # Queries on an exemplar, halfway between two, and far from all:
        # duplicate exemplars tie at the k-th distance and one-vote classes
        # tie on count.
        queries = np.array([[0.2, 0.8], [0.5, 0.5], [0.35, 0.65],
                            [0.65, 0.35], [1.0, 0.0], [0.0, 1.0]])
        for k in (1, 2, 3, 4, 7, 10):
            ids, confs = bodylang.classify_windows(queries, store, k)
            want = [bodylang.knn_classify(q, store, k) for q in queries]
            assert_same_bytes(ids, np.array([w[0] for w in want], dtype=int))
            assert_same_bytes(confs, np.array([w[1] for w in want]))

    def test_distance_rows_equal_per_window_distances(self, noisy_ds, books):
        stores = self._stores(noisy_ds, bodylang.FEATURE_NTRAJ_PLUS, books)
        seq = _all_clips(noisy_ds)[-1]
        feats = bodylang.clip_features(seq, bodylang.FEATURE_NTRAJ_PLUS,
                                       noisy_ds.config, books)
        store = stores["upper"]
        matrix = bodylang._distances(feats["upper"][:, None, :], store)
        for w, f in enumerate(feats["upper"]):
            assert_same_bytes(matrix[w],
                              bodylang.chi_square(f, store.features))
