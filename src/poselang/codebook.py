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


# Rows per elementwise pass over the distance product: a block of 512 rows
# by a 100-centroid codebook (400 KB) stays in cache across the passes.
ROW_BLOCK = 512


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per point by the expanded ||p - c||^2, clamped at
    0; ties resolve to the lowest index.

    The product is one GEMM over all rows, so every row keeps the bits of
    an unsplit product; the add, subtract, clamp and argmin then run over
    cache-sized row blocks of it.
    """
    p2 = np.square(points).sum(axis=1)
    c2 = np.square(centroids).sum(axis=1)
    prod = 2.0 * points @ centroids.T
    labels = np.empty(points.shape[0], dtype=np.intp)
    buf = np.empty((min(ROW_BLOCK, points.shape[0]), centroids.shape[0]))
    for lo in range(0, points.shape[0], ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, points.shape[0])
        d2 = buf[:hi - lo]
        # p2 + c2 as a row fill plus a contiguous add: faster than the
        # broadcast outer sum, and the same sums.
        d2[:] = p2[lo:hi, None]
        d2 += c2
        np.subtract(d2, prod[lo:hi], out=d2)
        np.maximum(d2, 0.0, out=d2)
        np.argmin(d2, axis=1, out=labels[lo:hi])
    return labels


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per point and its exact squared distance."""
    labels = _nearest(points, centroids)
    best = np.square(points - centroids[labels]).sum(axis=1)
    return labels, best


def kmeans_restarts(points: np.ndarray, n_clusters: int, restarts: int,
                    seed: int, stream_kind: str = "") -> Codebook:
    """Run Lloyd's algorithm `restarts` times and keep the lowest-inertia run.

    Initial centroids are drawn uniformly without replacement from the
    distinct points; everything is deterministic given the seed.
    Low-diversity streams (e.g. held postures) can have fewer distinct
    points than `n_clusters`; the codebook then has one centroid per
    distinct point.
    """
    points = np.asarray(points, dtype=np.float64)
    unique, counts = np.unique(points, axis=0, return_counts=True)
    if unique.shape[0] == 0:
        raise TooFewPoints("no points to cluster")
    n_clusters = min(n_clusters, unique.shape[0])
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
    Each centroid's weighted sum is one `bincount` per descriptor column,
    which adds a cluster's rows in their original order from +0.0, as an
    axis-0 sum of the cluster's rows does.  (A one-column sum is pairwise
    in numpy; pipeline descriptors of width 1 are -1, 0 or 1 with integer
    weights, so their sums are exact in any order.)
    """
    init = rng.choice(unique.shape[0], size=n_clusters, replace=False)
    centroids = unique[init].copy()
    weights = counts.astype(np.float64)
    columns = (unique * weights[:, None]).T.copy()
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
        # Integer weights, so these totals are exact in any order.
        totals = np.bincount(labels, weights=weights, minlength=n_clusters)
        filled = totals > 0
        sums = np.stack([np.bincount(labels, weights=col,
                                     minlength=n_clusters) for col in columns],
                        axis=1)
        centroids[filled] = sums[filled] / totals[filled, None]
        for k in np.flatnonzero(~filled):
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
    return _nearest(descriptors, codebook.centroids)


def window_feature(blocks: dict[str, DescriptorBlock],
                   codebooks: dict[str, Codebook],
                   window_starts: np.ndarray, window_len: int,
                   kind_order: list[str]) -> np.ndarray:
    """Per-window bag-of-features histograms, one L1-normalized block per
    stream kind, concatenated in `kind_order`.

    A descriptor belongs to a window when its start frame lies in
    [w0, w0 + window_len).  Windows with no descriptors of a kind get an
    all-zero block.  Only the start frames some window covers are
    quantized, each with all of the kind's streams.
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
            lo = np.minimum(window_starts, n_starts)
            hi = np.minimum(window_starts + window_len, n_starts)
            depth = np.cumsum(np.bincount(lo, minlength=n_starts + 1)
                              - np.bincount(hi, minlength=n_starts + 1))
            covered = np.flatnonzero(depth[:n_starts])
            if covered.size:
                labels = quantize_batch(blk.values[covered].reshape(-1, T), cb)
                # Label counts per start frame, then per window as a
                # difference of cumulative sums: integers, so exact.
                counts = np.bincount(labels + N * np.repeat(covered, n_streams),
                                     minlength=n_starts * N)
                cum = np.zeros((n_starts + 1, N), dtype=counts.dtype)
                np.cumsum(counts.reshape(n_starts, N), axis=0, out=cum[1:])
                hist[:] = cum[hi] - cum[lo]
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
