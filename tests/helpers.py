"""Helpers shared by the test modules: random poses, label-sequence
datasets that bypass the pose pipeline, numeric reference checks, and the
loop versions of vectorized code."""

import json
from itertools import combinations

import numpy as np

from poselang import bodylang, codebook, core, neural, synth


def make_sequence(rng, n_frames=24, jitter=5.0, frame_rate=24.0,
                  source_id="seq"):
    """A valid random pose sequence wobbling around the rest pose."""
    xy = np.tile(synth.REST_POSE, (n_frames, 1, 1))
    xy = xy + rng.normal(0.0, jitter, size=xy.shape)
    ones = np.ones((n_frames, core.N_JOINTS))
    return core.PoseSequence(xy=xy, confidence=ones,
                             valid=ones.astype(bool),
                             frame_rate=frame_rate, source_id=source_id)


def order_only_emotion_rules() -> tuple[synth.EmotionRule, ...]:
    """Every emotion depends on which of a class pair appears first, so a
    video-level histogram carries no usable signal."""
    pairs = (
        ("upper", "arms_crossed", "wave"),
        ("lower", "legs_crossed", "pacing"),
        ("upper", "hands_on_head", "fidget_hands"),
        ("lower", "foot_tap", "knee_bounce"),
        ("upper", "reach_out", "nod"),
        ("lower", "lean", "legs_tucked"),
    )
    rules = []
    emo = 0
    for track, a, b in pairs:
        rules.append(synth.EmotionRule("order", track, a, b, emotion=emo))
        rules.append(synth.EmotionRule("order", track, b, a, emotion=emo + 1))
        emo += 2
    return tuple(rules)


def label_sequence_dataset(n_clips: int, n_windows: int,
                           label_sets: dict[str, core.LabelSet],
                           rules, corrupt_prob: float, seed: int = 0,
                           background_prob: float = 0.15,
                           segment_range: tuple[int, int] = (4, 8)):
    """Window-label sequences with a controlled corruption rate.

    Bypasses the pose pipeline: segments are drawn directly on the window
    grid, emotions derive from the clean sequence, and each window label
    is independently replaced with probability `corrupt_prob` — a stand-in
    for stage-1 prediction noise.  Returns (clean, noisy, emotion n-hot)
    triples of BodyLanguageSequence.
    """
    out = []
    for i in range(n_clips):
        rng = np.random.default_rng((seed, 900, i))
        tracks = {}
        for track in ("upper", "lower"):
            names = list(label_sets[track].names)
            non_bg = names[:-1]
            seq: list[str] = []
            while len(seq) < n_windows:
                length = int(rng.integers(*segment_range))
                if rng.random() < background_prob:
                    name = synth.BACKGROUND
                else:
                    name = non_bg[rng.integers(len(non_bg))]
                seq.extend([name] * length)
            tracks[track] = seq[:n_windows]
        emotions = synth.emotions_from_windows(tracks, rules)

        def ids(track):
            lset = label_sets[track]
            return np.array([lset.index(n) for n in tracks[track]])

        clean = {t: ids(t) for t in ("upper", "lower")}
        noisy = {}
        for track in ("upper", "lower"):
            arr = clean[track].copy()
            flip = rng.random(n_windows) < corrupt_prob
            arr[flip] = rng.integers(len(label_sets[track]), size=int(flip.sum()))
            noisy[track] = arr
        ones = np.ones(n_windows)

        def mk(d):
            return core.BodyLanguageSequence(
                clip_id=f"lseq{i:04d}", ids=d,
                conf={"upper": ones, "lower": ones})

        out.append((mk(clean), mk(noisy), emotions))
    return out


def descriptor_count(n_frames: int, traj_len: int, gap: int | None) -> int:
    """Start-frame count for one stream."""
    s = gap or 0
    return max(0, n_frames - traj_len + 1 - s)


def gradient_check(net, x, y, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    loss_fn = neural.loss_for(y)
    _, dlogits = loss_fn(net.forward(x), y)
    net.backward(dlogits)
    analytic = [g.copy() for g in net.grads()]

    worst = 0.0
    for p, g in zip(net.params(), analytic):
        flat, gflat = p.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_fn(net.forward(x), y)
            flat[i] = orig - h
            lm, _ = loss_fn(net.forward(x), y)
            flat[i] = orig
            numeric = (lp - lm) / (2 * h)
            denom = max(abs(numeric) + abs(gflat[i]), 1e-8)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst


# ---------------------------------------------------------------------------
# Stage-1 loops as they were before vectorizing: oracles that the
# vectorized code must match bit for bit.

def assign_unblocked(points, centroids):
    """Nearest centroid per point and its squared distance, from one
    full-size distance matrix."""
    d2 = (np.square(points).sum(axis=1)[:, None]
          + np.square(centroids).sum(axis=1)[None, :]
          - 2.0 * points @ centroids.T)
    np.maximum(d2, 0.0, out=d2)
    labels = np.argmin(d2, axis=1)
    best = np.square(points - centroids[labels]).sum(axis=1)
    return labels, best


def lloyd_masked(unique, counts, n_clusters, rng):
    """One weighted Lloyd run with a masked sum per cluster: (centroids,
    inertia, number of empty-cluster reseeds)."""
    init = rng.choice(unique.shape[0], size=n_clusters, replace=False)
    centroids = unique[init].copy()
    weights = counts.astype(np.float64)
    labels = np.full(unique.shape[0], -1)
    reseeds = 0
    for _ in range(codebook.MAX_KMEANS_ITERS):
        new_labels, d2 = assign_unblocked(unique, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in range(n_clusters):
            mask = labels == k
            if mask.any():
                w = weights[mask]
                centroids[k] = (unique[mask] * w[:, None]).sum(axis=0) / w.sum()
            else:
                far = int(np.argmax(d2))
                centroids[k] = unique[far]
                d2[far] = 0.0
                reseeds += 1
    _, d2 = assign_unblocked(unique, centroids)
    return centroids, float(d2 @ weights), reseeds


def window_feature_per_window(blocks, codebooks, window_starts, window_len,
                              kind_order):
    """Window histograms from every start frame's labels, one `bincount`
    per window."""
    feats = []
    for kind in kind_order:
        cb = codebooks[kind]
        hist = np.zeros((len(window_starts), cb.size))
        blk = blocks.get(kind)
        if blk is not None and blk.values.size:
            n_starts, n_streams, T = blk.values.shape
            labels, _ = assign_unblocked(blk.values.reshape(-1, T),
                                         cb.centroids)
            labels = labels.reshape(n_starts, n_streams)
            for w, w0 in enumerate(window_starts):
                hist[w] = np.bincount(labels[w0:w0 + window_len].ravel(),
                                      minlength=cb.size)
            sums = hist.sum(axis=1, keepdims=True)
            np.divide(hist, sums, out=hist, where=sums > 0)
        feats.append(hist)
    return np.concatenate(feats, axis=1)


def inner_angles_loop(seq, subset):
    """(values, scopes) of the inner-angle streams, one column per triple
    corner."""
    joints = subset.indices
    pos = seq.xy[:, joints]
    scopes, cols = [], []
    for a, b, c in combinations(range(len(joints)), 3):
        for vertex, arms in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
            u = pos[:, arms[0], :] - pos[:, vertex, :]
            w = pos[:, arms[1], :] - pos[:, vertex, :]
            cross = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]
            dot = (u * w).sum(axis=1)
            cols.append(np.arctan2(np.abs(cross), dot))
            scopes.append((joints[vertex], joints[arms[0]], joints[arms[1]]))
    vals = np.stack(cols, axis=1) if cols else np.zeros((len(pos), 0))
    return vals, scopes


def predict_per_window(seq, stores, config, models):
    """{track: (class ids, confidences)} from one `knn_classify` call per
    window of the full-clip features."""
    feats = bodylang.clip_features(seq, stores[core.TRACKS[0]].feature_kind,
                                   config, models)
    out = {}
    for track in core.TRACKS:
        votes = [bodylang.knn_classify(f, stores[track], config.knn_k)
                 for f in feats[track]]
        out[track] = (np.array([v[0] for v in votes], dtype=int),
                      np.array([v[1] for v in votes]))
    return out


def write_clip_per_joint(seq, clip_dir):
    """`synth._write_clip` one joint at a time: valid joints as
    `x, y, confidence`, invalid ones as zeros."""
    clip_dir.mkdir(parents=True, exist_ok=True)
    for t in range(seq.n_frames):
        kps = []
        for j in range(core.N_JOINTS):
            if seq.valid[t, j]:
                kps += [float(seq.xy[t, j, 0]), float(seq.xy[t, j, 1]),
                        float(seq.confidence[t, j])]
            else:
                kps += [0.0, 0.0, 0.0]
        doc = {"people": [{"pose_keypoints_2d": kps}]}
        (clip_dir / f"frame_{t:06d}.json").write_text(json.dumps(doc))


def avgpool_backward_repeat(dout):
    """`neural.AvgPool2.backward` as it was: the pooled gradient repeated
    along both spatial axes, then quartered."""
    return np.repeat(np.repeat(dout, 2, axis=1), 2, axis=2) / 4.0
