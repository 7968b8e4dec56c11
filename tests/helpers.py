"""Helpers shared by the test modules: random poses, label-sequence
datasets that bypass the pose pipeline, and numeric reference checks."""

import numpy as np

from poselang import core, neural, synth


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
        window_labels = list(zip(tracks["upper"], tracks["lower"]))
        emotions = synth.emotions_from_windows(window_labels, rules)

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
                clip_id=f"lseq{i:04d}", upper=d["upper"], lower=d["lower"],
                upper_conf=ones, lower_conf=ones)

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
