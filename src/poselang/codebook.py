"""Bag-of-features codebooks: restarted k-means, quantization, window
histograms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts
from .core import InvariantViolated, PoselangError
from .ntraj import DescriptorBlock

MAX_KMEANS_ITERS = 100


class TooFewPoints(PoselangError):
    pass


class DimensionMismatch(PoselangError):
    pass


class MissingCodebook(PoselangError):
    pass


@dataclass
class Codebook:
    stream_kind: str
    centroids: np.ndarray  # (N, T)
    inertia: float
    seed: int = 0

    @property
    def size(self) -> int:
        return self.centroids.shape[0]


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per point (lowest index on ties) and squared distances."""
    # ||p - c||^2 expanded; exact distances recomputed for the winners.
    d2 = (np.square(points).sum(axis=1)[:, None]
          + np.square(centroids).sum(axis=1)[None, :]
          - 2.0 * points @ centroids.T)
    np.maximum(d2, 0.0, out=d2)
    labels = np.argmin(d2, axis=1)
    best = np.square(points - centroids[labels]).sum(axis=1)
    return labels, best


def kmeans_restarts(points: np.ndarray, n_clusters: int, restarts: int,
                    seed: int, stream_kind: str = "") -> Codebook:
    """Run Lloyd's algorithm `restarts` times and keep the lowest-inertia run.

    Initial centroids are drawn uniformly without replacement from the
    distinct points; everything is deterministic given the seed.
    """
    points = np.asarray(points, dtype=np.float64)
    unique, counts = np.unique(points, axis=0, return_counts=True)
    if unique.shape[0] < n_clusters:
        raise TooFewPoints(
            f"{unique.shape[0]} distinct points < {n_clusters} clusters")
    best: tuple[np.ndarray, float] | None = None
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        centroids, inertia = _lloyd(unique, counts, n_clusters, rng)
        if best is None or inertia < best[1]:
            best = (centroids, inertia)
    return Codebook(stream_kind=stream_kind, centroids=best[0],
                    inertia=best[1], seed=seed)


def _lloyd(unique, counts, n_clusters, rng):
    """One Lloyd run over the distinct points with multiplicity weights.

    Weighted updates give the same centroids and inertia as iterating over
    the duplicated points while doing far less work on repetitive data.
    """
    init = rng.choice(unique.shape[0], size=n_clusters, replace=False)
    centroids = unique[init].copy()
    weights = counts.astype(np.float64)
    labels = np.full(unique.shape[0], -1)
    prev_inertia = np.inf
    for _ in range(MAX_KMEANS_ITERS):
        new_labels, d2 = _assign(unique, centroids)
        inertia = float(d2 @ weights)
        if inertia > prev_inertia + 1e-9 * max(1.0, prev_inertia):
            raise InvariantViolated(f"k-means inertia increased from "
                                    f"{prev_inertia} to {inertia}")
        prev_inertia = inertia
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
    _, d2 = _assign(unique, centroids)
    return centroids, float(d2 @ weights)


def quantize_batch(descriptors: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Index of each row's nearest centroid; ties resolve to the lowest
    index."""
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if descriptors.shape[1:] != codebook.centroids.shape[1:]:
        raise DimensionMismatch(f"descriptors {descriptors.shape} vs "
                                f"centroids {codebook.centroids.shape}")
    labels, _ = _assign(descriptors, codebook.centroids)
    return labels


def window_feature(blocks: dict[str, DescriptorBlock],
                   codebooks: dict[str, Codebook],
                   window_starts: np.ndarray, window_len: int,
                   kind_order: list[str]) -> np.ndarray:
    """Per-window bag-of-features histograms, one L1-normalized block per
    stream kind, concatenated in `kind_order`.

    A descriptor belongs to a window when its start frame lies in
    [w0, w0 + window_len).  Windows with no descriptors of a kind get an
    all-zero block.
    """
    window_starts = np.asarray(window_starts)
    K = len(window_starts)
    feats = []
    for kind in kind_order:
        if kind not in codebooks:
            raise MissingCodebook(kind)
        cb = codebooks[kind]
        N = cb.size
        hist = np.zeros((K, N))
        blk = blocks.get(kind)
        if blk is not None and blk.values.size:
            n_starts, n_streams, T = blk.values.shape
            flat = blk.values.reshape(-1, T)
            labels = quantize_batch(flat, cb).reshape(n_starts, n_streams)
            for w, w0 in enumerate(window_starts):
                hist[w] = np.bincount(labels[w0:w0 + window_len].ravel(),
                                      minlength=N)
            sums = hist.sum(axis=1, keepdims=True)
            np.divide(hist, sums, out=hist, where=sums > 0)
        feats.append(hist)
    return np.concatenate(feats, axis=1)


# ---------------------------------------------------------------------------
# Artifact: the header names the stream kind and shape, the payload holds
# the centroids.

MAGIC = "POSELANG-CODEBOOK-1"


def save_codebook(cb: Codebook, path, config_hash: str = "") -> None:
    artifacts.write(path, {
        "magic": MAGIC, "kind": cb.stream_kind, "n": int(cb.size),
        "t": int(cb.centroids.shape[1]), "seed": int(cb.seed),
        "inertia": cb.inertia, "config_hash": config_hash,
    }, cb.centroids)


# Descriptors are L1-normalized, so every real centroid value lies in
# [-1, 1]; a damaged payload can still be finite but far outside.
CENTROID_BOUND = 1.0 + 1e-9


def load_codebook(path, expect_config_hash: str | None = None) -> Codebook:
    header, flat = artifacts.read(path, MAGIC, expect_config_hash)
    with artifacts.fields_of(path):
        book = Codebook(stream_kind=header["kind"],
                        centroids=flat.reshape(header["n"], header["t"]).copy(),
                        inertia=header["inertia"], seed=header["seed"])
    bad = flat[np.abs(flat) > CENTROID_BOUND]
    if bad.size:
        raise artifacts.CorruptArtifact(
            f"{path}: centroid value {float(bad[0])} is outside [-1, 1]")
    return book
