"""Acceptance suite: property checks plus structural reproduction of the
pipeline's expected behavior on synthetic data.

Every test prints one `criterion N: PASS|FAIL` line with the measured
numbers before asserting, so the verdicts are visible in the test log.
"""

import dataclasses
import itertools
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from poselang import (bodylang, cli, codebook as cb, core, emotion, metrics,
                      neural, ntraj, pipeline, preprocess, synth)
from helpers import (descriptor_count, gradient_check, label_sequence_dataset,
                     make_sequence, order_only_emotion_rules)
from test_neural import make_pool_safe_batch


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# Shared heavyweight fixtures

@pytest.fixture(scope="module")
def default_env(tmp_path_factory):
    """The default noiseless dataset (6 classes/track, 48 clips/split)."""
    t0 = time.perf_counter()
    config = core.PipelineConfig()
    spec = synth.ScenarioSpec(noise_std=0.0, dropout_rate=0.0)
    root = tmp_path_factory.mktemp("default_dataset")
    synth.generate_dataset(spec, root, config)
    ds = pipeline.load_dataset(root / "manifest.csv", config)
    rows = synth.pick_exemplars(ds.manifest, ds.gt, ds.label_sets,
                                config.window_stride)
    return {"ds": ds, "rows": rows, "config": config,
            "elapsed": time.perf_counter() - t0}


def _stage1_eval(ds, preds):
    acc = pipeline.window_accuracy(ds, preds)
    f1s = pipeline.video_multilabel(ds, preds)
    return acc, {t: f1s[t].f1 for t in f1s}


@pytest.fixture(scope="module")
def ntraj_eval(default_env):
    t0 = time.perf_counter()
    ds, rows = default_env["ds"], default_env["rows"]
    books = {t: pipeline.train_codebooks(ds, t) for t in ("upper", "lower")}
    stores = pipeline.build_stores(ds, rows, bodylang.FEATURE_NTRAJ_PLUS,
                                   books)
    preds = pipeline.predict_split(ds, "test", stores, books)
    acc, f1 = _stage1_eval(ds, preds)
    return {"acc": acc, "f1": f1, "elapsed": time.perf_counter() - t0}


def _train_encoders(ds, clip_ids=None):
    spec = neural.TrainSpec(learning_rate=0.05, epochs=90, batch_size=32,
                            seed=ds.config.seed)
    return pipeline.train_encoders(ds, spec, clip_ids)


def _stconv_run(ds, rows, encoders):
    stores = pipeline.build_stores(ds, rows, bodylang.FEATURE_STCONV,
                                   encoders)
    preds = pipeline.predict_split(ds, "test", stores, encoders)
    return _stage1_eval(ds, preds)


@pytest.fixture(scope="module")
def stconv_eval(default_env):
    t0 = time.perf_counter()
    ds, rows = default_env["ds"], default_env["rows"]
    encoders = _train_encoders(ds)
    acc, f1 = _stconv_run(ds, rows, encoders)
    return {"acc": acc, "f1": f1, "elapsed": time.perf_counter() - t0}


STAGE2_SPEC = neural.TrainSpec(learning_rate=0.5, momentum=0.9, epochs=400,
                               batch_size=16, seed=0)


@pytest.fixture(scope="module")
def stage2_env(tmp_path_factory):
    """Short-segment scenario with spread motion bias, plus full stage-1
    NTraj+ predictions for every split."""
    config = core.PipelineConfig()
    spec = synth.stage2_scenario(noise_std=0.0, dropout_rate=0.0,
                                 clips_per_split=160)
    root = tmp_path_factory.mktemp("stage2_dataset")
    synth.generate_dataset(spec, root, config)
    ds = pipeline.load_dataset(root / "manifest.csv", config)
    books = {t: pipeline.train_codebooks(ds, t) for t in ("upper", "lower")}
    rows = synth.pick_exemplars(ds.manifest, ds.gt, ds.label_sets,
                                config.window_stride)
    stores = pipeline.build_stores(ds, rows, bodylang.FEATURE_NTRAJ_PLUS,
                                   books)
    preds = {}
    for split in ("train", "val", "test"):
        preds.update(pipeline.predict_split(ds, split, stores, books))
    return {"ds": ds, "preds": preds}


# ---------------------------------------------------------------------------
# 1. Preprocess invariance

def test_criterion_1_preprocess_invariance():
    t0 = time.perf_counter()
    config = core.PipelineConfig()
    rng = np.random.default_rng(1)
    worst_rel = 0.0
    worst_med = 0.0
    for i in range(100):
        seq = make_sequence(rng, n_frames=int(rng.integers(8, 30)),
                            jitter=8.0, source_id=f"s{i}")
        a, _ = preprocess.preprocess(seq, config)
        c = float(rng.uniform(0.1, 10.0))
        shift = rng.uniform(-500.0, 500.0, size=2)
        moved = dataclasses.replace(seq, xy=np.asarray(seq.xy) * c + shift)
        b, _ = preprocess.preprocess(moved, config)
        scale = max(1.0, float(np.abs(a.xy).max()))
        worst_rel = max(worst_rel,
                        float(np.abs(a.xy - b.xy).max()) / scale)
        med = float(np.median(preprocess.torso_lengths(a)))
        worst_med = max(worst_med, abs(med - 240.0))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-9 and worst_med <= 1e-6 and elapsed < 10.0
    report(1, ok, f"max rel dev {worst_rel:.2e}, max |median torso - 240| "
                  f"{worst_med:.2e}, {elapsed:.1f}s")
    assert worst_rel <= 1e-9
    assert worst_med <= 1e-6
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. NTraj descriptor suite

def test_criterion_2_ntraj_descriptors():
    rng = np.random.default_rng(2)

    # (a) Every non-degenerate descriptor is L1-normalized.
    worst = 0.0
    for _ in range(10):
        seq = make_sequence(rng, n_frames=int(rng.integers(10, 24)))
        blocks = ntraj.extract_descriptors(seq, core.SUBSETS["upper"], 5,
                                           (1, 2, 3))
        for blk in blocks.values():
            sums = np.abs(blk.values).sum(axis=-1)
            live = sums[~blk.degenerate]
            if live.size:
                worst = max(worst, float(np.abs(live - 1.0).max()))

    # (b) Descriptor counts match brute-force enumeration for 50 random
    # (length, T, gaps) configurations.
    counts_ok = True
    for _ in range(50):
        T = int(rng.integers(2, 8))
        gaps = tuple(sorted(set(rng.integers(1, 5,
                                             size=rng.integers(1, 4)).tolist())))
        n = int(rng.integers(T + max(gaps), T + max(gaps) + 30))
        seq = make_sequence(rng, n_frames=n)
        blocks = ntraj.extract_descriptors(seq, core.SUBSETS["lower"], T, gaps)
        for blk in blocks.values():
            s = blk.gap or 0
            stream_len = n - s
            brute = sum(1 for t0 in range(stream_len)
                        if t0 + T <= stream_len)
            if blk.values.shape[0] != brute:
                counts_ok = False
            if descriptor_count(n, T, blk.gap) != brute:
                counts_ok = False

    # (c) Inner angles are invariant to rotation (and translation).
    worst_rot = 0.0
    for _ in range(10):
        seq = make_sequence(rng, n_frames=8)
        theta = float(rng.uniform(0.0, 2 * np.pi))
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        moved = dataclasses.replace(seq, xy=np.asarray(seq.xy) @ R.T
                                    + rng.uniform(-100, 100, size=2))
        a = ntraj.raw_streams(seq, core.SUBSETS["upper"], (1,))["inner_angle"]
        b = ntraj.raw_streams(moved, core.SUBSETS["upper"], (1,))["inner_angle"]
        worst_rot = max(worst_rot, float(np.abs(a.values - b.values).max()))

    ok = worst <= 1e-9 and counts_ok and worst_rot <= 1e-9
    report(2, ok, f"max |L1-1| {worst:.2e}, counts match: {counts_ok}, "
                  f"max rotation dev {worst_rot:.2e}")
    assert worst <= 1e-9
    assert counts_ok
    assert worst_rot <= 1e-9


# ---------------------------------------------------------------------------
# 3. k-means oracle

def _exhaustive_two_means(points):
    """Optimal 2-cluster inertia by enumerating every bipartition."""
    n = len(points)
    best = np.inf
    for mask in range(1, 2 ** n - 1):
        sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        cost = 0.0
        for side in (points[sel], points[~sel]):
            mean = side.mean(axis=0)
            cost += float(np.square(side - mean).sum())
        best = min(best, cost)
    return best


def test_criterion_3_kmeans_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    max_restarts = 0
    n_checked = 0
    while n_checked < 200:
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, 4))
        pts = rng.normal(0.0, 2.0, size=(n, d))
        if n_checked % 2:
            pts = np.round(pts)  # coarse grid forces duplicate points
        if np.unique(pts, axis=0).shape[0] < 2:
            continue
        opt = _exhaustive_two_means(pts)
        scale = max(1.0, opt)
        # The optimal basin can be reachable from very few inits (sometimes
        # one point pair), so restarts are added in batches until the
        # restart-best run matches the exhaustive optimum or the cap hits.
        excess = np.inf
        for attempt in range(16):
            book = cb.kmeans_restarts(pts, 2, restarts=25,
                                      seed=10_000 * n_checked + attempt)
            excess = min(excess, (book.inertia - opt) / scale)
            if excess <= 1e-9:
                break
        max_restarts = max(max_restarts, 25 * (attempt + 1))
        worst = max(worst, excess)
        n_checked += 1
    ok = worst <= 1e-9
    report(3, ok, f"200 instances, max excess over exhaustive optimum "
                  f"{worst:.2e} (relative), <= {max_restarts} restarts needed")
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# 4. KNN oracle

def _knn_oracle(feature, store, k):
    if store.feature_kind == bodylang.FEATURE_NTRAJ_PLUS:
        dists = [float(bodylang.chi_square(feature, f))
                 for f in store.features]
    else:
        dists = [float(np.linalg.norm(f - feature)) for f in store.features]
    order = sorted(range(len(dists)), key=lambda i: (dists[i], i))[:min(k, len(dists))]
    votes = {}
    for i in order:
        votes.setdefault(int(store.labels[i]), []).append(dists[i])
    def key(item):
        class_id, ds = item
        return (-len(ds), sum(ds) / len(ds), class_id)
    class_id, ds = min(votes.items(), key=key)
    return class_id, 1.0 / (1.0 + sum(ds) / len(ds))


def _random_store(rng, kind, n, d, n_classes):
    if kind == bodylang.FEATURE_NTRAJ_PLUS:
        feats = rng.random((n, d))
        feats /= feats.sum(axis=1, keepdims=True)
    else:
        feats = rng.normal(size=(n, d))
    lset = core.LabelSet.from_classes([f"c{i}" for i in range(n_classes - 1)])
    return bodylang.ExemplarStore(
        track="upper", feature_kind=kind, features=feats,
        labels=rng.integers(0, n_classes, size=n), label_set=lset)


def _knn_agrees(query, store, k):
    got_cls, got_conf = bodylang.knn_classify(query, store, k)
    want_cls, want_conf = _knn_oracle(query, store, k)
    return got_cls == want_cls and abs(got_conf - want_conf) < 1e-9


def test_criterion_4_knn_oracle():
    rng = np.random.default_rng(4)
    kinds = (bodylang.FEATURE_NTRAJ_PLUS, bodylang.FEATURE_STCONV)
    mismatches = 0
    for i in range(1000):
        kind = kinds[i % 2]
        d = int(rng.integers(3, 9))
        store = _random_store(rng, kind, int(rng.integers(5, 21)), d, 4)
        if kind == bodylang.FEATURE_NTRAJ_PLUS:
            q = rng.random(d)
            q /= q.sum()
        else:
            q = rng.normal(size=d)
        k = int(rng.choice([1, 3, 5]))
        if not _knn_agrees(q, store, k):
            mismatches += 1

    # Deliberate ties: equidistant exemplars around the query, duplicated
    # feature rows, and equal class counts.
    lset = core.LabelSet.from_classes(["a", "b", "c"])
    for i in range(50):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                          [0.0, 1.0]])  # exact duplicate of row 2
        labels = rng.integers(0, 3, size=5)
        store = bodylang.ExemplarStore(
            track="upper", feature_kind=bodylang.FEATURE_STCONV,
            features=feats, labels=labels, label_set=lset)
        q = np.zeros(2)  # every exemplar at distance exactly 1
        for k in (1, 2, 3, 5):
            if not _knn_agrees(q, store, k):
                mismatches += 1
    ok = mismatches == 0
    report(4, ok, f"1000 random pairs + 200 constructed ties, "
                  f"{mismatches} oracle mismatches")
    assert mismatches == 0


# ---------------------------------------------------------------------------
# 5. Gradient checks

def test_criterion_5_gradient_checks():
    t0 = time.perf_counter()
    worst = {"conv_encoder": 0.0, "recurrent": 0.0, "conv1d": 0.0}
    for seed in range(20):
        rng = np.random.default_rng((5, seed))

        enc = neural.ConvEncoder(in_hw=(8, 8), in_channels=2, channels=(2, 3),
                                 n_classes=2, seed=seed)
        x = rng.normal(size=(2, 8, 8, 2))
        y = rng.integers(0, 2, size=2)
        worst["conv_encoder"] = max(worst["conv_encoder"],
                                    gradient_check(enc, x, y))

        rec = neural.RecurrentNet(input_dim=3, hidden=4, n_out=2, seed=seed)
        x = rng.normal(size=(2, 5, 3))
        y = rng.integers(0, 2, size=(2, 2)).astype(float)
        worst["recurrent"] = max(worst["recurrent"],
                                 gradient_check(rec, x, y))

        c1d = neural.Conv1DNet(input_dim=3, channels=4, n_out=2, seed=seed)
        x = make_pool_safe_batch(rng, (2, 6, 3), c1d)
        y = rng.integers(0, 2, size=(2, 2)).astype(float)
        worst["conv1d"] = max(worst["conv1d"],
                              gradient_check(c1d, x, y))
    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    ok = peak < 1e-4 and elapsed < 60.0
    report(5, ok, "20 seeds, max rel err "
           + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
           + f", {elapsed:.1f}s")
    assert peak < 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 6. Stage-1 synthetic accuracy, both feature paths

def test_criterion_6_stage1_accuracy(default_env, ntraj_eval, stconv_eval):
    elapsed = (default_env["elapsed"] + ntraj_eval["elapsed"]
               + stconv_eval["elapsed"])
    na, nf = ntraj_eval["acc"], ntraj_eval["f1"]
    sa, sf = stconv_eval["acc"], stconv_eval["f1"]
    ok = (na["overall"] >= 0.90 and sa["overall"] >= 0.90
          and min(nf.values()) >= 0.85 and min(sf.values()) >= 0.85
          and sa["overall"] >= na["overall"] - 0.05
          and elapsed < 600.0)
    report(6, ok,
           f"ntraj+ acc {na['overall']:.3f} (u {na['upper']:.3f} "
           f"l {na['lower']:.3f}) F1 u {nf['upper']:.3f} l {nf['lower']:.3f}; "
           f"stconv acc {sa['overall']:.3f} (u {sa['upper']:.3f} "
           f"l {sa['lower']:.3f}) F1 u {sf['upper']:.3f} l {sf['lower']:.3f}; "
           f"{elapsed:.0f}s")
    assert na["overall"] >= 0.90
    assert sa["overall"] >= 0.90
    assert min(nf.values()) >= 0.85
    assert min(sf.values()) >= 0.85
    assert sa["overall"] >= na["overall"] - 0.05
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 7. Stage-2 L/S ordering on an order-dependent emotion task

def test_criterion_7_histogram_window_ordering():
    lsets = synth.ScenarioSpec().label_sets()
    rules = order_only_emotion_rules()
    n = 240
    data = label_sequence_dataset(3 * n, 60, lsets, rules,
                                  corrupt_prob=0.25, seed=0)
    # A longer test split tightens the F1 estimates; the smaller validation
    # split is only used for early stopping.
    half = n + n // 2
    splits = {"train": data[:n], "val": data[n:half], "test": data[half:]}
    f1 = {}
    for L, S in ((7, 3), (10 ** 9, 1), (1, 1)):
        def mk(part):
            return [(emotion.histogram_sequence(noisy, lsets, L, S), emo)
                    for _, noisy, emo in splits[part]]
        emo_net, _ = emotion.train_stage2(mk("train"), mk("val"), lsets,
                                          STAGE2_SPEC, "emotion")
        preds = emotion.predict_emotion(
            [h for h, _ in mk("test")], emo_net) >= 0.5
        truth = [emo for _, _, emo in splits["test"]]
        f1[(L, S)] = metrics.multilabel_scores(preds, truth).f1
    f73, fK, f11 = f1[(7, 3)], f1[(10 ** 9, 1)], f1[(1, 1)]
    ok = (f73 - fK >= 0.15) and (f11 <= f73)
    report(7, ok, f"F1: L=7,S=3 {f73:.3f} > L=K {fK:.3f} "
                  f"(gap {f73 - fK:.3f} >= 0.15), L=1,S=1 {f11:.3f} <= L=7")
    assert f73 - fK >= 0.15
    assert f11 <= f73


# ---------------------------------------------------------------------------
# 8. Symptom: ground truth vs predicted sequences

def test_criterion_8_symptom_gt_vs_predicted(stage2_env):
    ds, preds = stage2_env["ds"], stage2_env["preds"]
    accs = {}
    for name, src in (("gt", ds.gt), ("pred", preds)):
        data = {split: pipeline.stage2_data(ds, split, ds.config.emo_hist_len,
                                            ds.config.emo_hist_stride, src,
                                            "symptom")
                for split in ("train", "val", "test")}
        sym_net, _ = emotion.train_stage2(data["train"], data["val"],
                                          ds.label_sets, STAGE2_SPEC,
                                          "symptom")
        probs = emotion.predict_symptom([h for h, _ in data["test"]], sym_net)
        accs[name] = metrics.binary_accuracy(
            probs >= 0.5, [y[0] for _, y in data["test"]])
    ok = accs["gt"] >= 0.90 and accs["pred"] < accs["gt"]
    report(8, ok, f"symptom accuracy gt {accs['gt']:.3f} >= 0.90, "
                  f"pred {accs['pred']:.3f} strictly lower")
    assert accs["gt"] >= 0.90
    assert accs["pred"] < accs["gt"]


# ---------------------------------------------------------------------------
# 9. Determinism

def _full_cli_run(workdir: Path) -> dict[str, bytes]:
    runner = CliRunner()
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "config.txt").write_text("codebook_size=10\n")

    def run(*args):
        result = runner.invoke(cli.main,
                               ["--workdir", str(workdir)] + list(args))
        assert result.exit_code == 0, result.output
    run("synth", "gen", "--clips-per-split", "3")
    run("codebook", "train")
    run("exemplars", "build")
    run("bodylang", "predict", "--split", "test")
    run("eval", "--task", "bodylang")
    run("symptom", "train", "--epochs", "3")
    artifacts = {}
    for pattern in ("codebooks/**/*.cbk", "models/*.ckpt", "metrics/*.csv",
                    "predictions/ntraj+/*.csv"):
        for path in sorted(workdir.glob(pattern)):
            artifacts[str(path.relative_to(workdir))] = path.read_bytes()
    return artifacts


def test_criterion_9_determinism(tmp_path):
    a = _full_cli_run(tmp_path / "run_a")
    b = _full_cli_run(tmp_path / "run_b")
    same_names = set(a) == set(b)
    diffs = [name for name in a if same_names and a[name] != b[name]]
    ok = same_names and not diffs and len(a) >= 29
    report(9, ok, f"{len(a)} artifacts (codebooks, checkpoints, metric "
                  f"tables, predictions) byte-identical across two runs; "
                  f"diffs: {diffs}")
    assert same_names
    assert diffs == []
    assert len(a) >= 29  # 26 codebooks + model + metrics + predictions


# ---------------------------------------------------------------------------
# 10. Encoder data-fraction sweep

def test_criterion_10_data_fraction_sweep(default_env, stconv_eval):
    ds, rows = default_env["ds"], default_env["rows"]
    train_ids = sorted(e.clip_id for e in ds.manifest.split("train"))
    accs = {1.0: stconv_eval["acc"]["overall"]}
    for frac in (0.5, 0.2):
        ids = train_ids[:max(1, int(round(frac * len(train_ids))))]
        encoders = _train_encoders(ds, ids)
        acc, _ = _stconv_run(ds, rows, encoders)
        accs[frac] = acc["overall"]
    drop = 100.0 * (accs[1.0] - accs[0.2]) / max(accs[1.0], 1e-12)
    ok = accs[1.0] >= accs[0.5] >= accs[0.2]
    report(10, ok, f"accuracy 100% {accs[1.0]:.3f} >= 50% {accs[0.5]:.3f} "
                   f">= 20% {accs[0.2]:.3f}; drop at 20% = {drop:.2f}%")
    assert accs[1.0] >= accs[0.5] >= accs[0.2]
