"""Shared utilities for the baseline clusterers.

All baselines implement ``labels = algo(X, ...)`` on a dense float array
(rows aligned with the caller's ids) and return integer labels with -1
for noise, matching AdaWave's convention so one harness can score all of
them with AMI.

The numpy k-means here (k-means++ init, Lloyd iterations, seeded) is a
substrate used by DipMeans, STSC, RIC and the harness's noise-assignment
post-pass; the headline "k-means" baseline of the tables is the
Spark-native ``pyspark.ml`` one in ``baselines/kmeans.py``.

``_extend_labels`` is the one 1-NN label extension: the harness extends a
capped comparator's labels with it.
"""
from __future__ import annotations

import numpy as np

__all__ = ["kmeans_np", "assign_nearest", "pairwise_sq_dists"]

_N_INIT = 4  # k-means restarts
_MAX_ITER = 100  # Lloyd iterations per restart


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(len(A), len(B)) matrix of squared Euclidean distances."""
    return _sq_dists(A, (A * A).sum(axis=1)[:, None], B)


def _sq_dists(A: np.ndarray, aa: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``pairwise_sq_dists(A, B)`` given A's squared norms as a column ``aa``."""
    bb = (B * B).sum(axis=1)[None, :]
    d = aa + bb - 2.0 * (A @ B.T)
    np.maximum(d, 0.0, out=d)
    return d


def _extend_labels(X: np.ndarray, sample: np.ndarray, sub_labels: np.ndarray) -> np.ndarray:
    """1-NN extension of labels fitted on X[sample] to every row of X."""
    labels = np.empty(len(X), dtype=np.int64)
    labels[sample] = sub_labels
    rest = np.setdiff1d(np.arange(len(X)), sample)
    S = X[sample]
    ss = (S * S).sum(axis=1)
    step = max(1, 2**22 // len(S))  # caps each (step, len(S)) float64 temporary at 32 MB
    for s in range(0, len(rest), step):
        chunk = rest[s : s + step]
        B = X[chunk]
        d2 = (B * B).sum(axis=1)[:, None] + ss[None, :] - 2.0 * (B @ S.T)
        labels[chunk] = sub_labels[d2.argmin(axis=1)]
    return labels


def _kmeanspp_init(X: np.ndarray, xx: np.ndarray, k: int, g: np.random.Generator) -> np.ndarray:
    n = len(X)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[g.integers(n)]
    d2 = _sq_dists(X, xx, centers[:1]).ravel()
    for i in range(1, k):
        p = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[i] = X[g.choice(n, p=p)]
        d2 = np.minimum(d2, _sq_dists(X, xx, centers[i : i + 1]).ravel())
    return centers


def kmeans_np(X: np.ndarray, k: int, *, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means with k-means++ init; returns (labels, centers).

    Deterministic in ``seed``; best of ``_N_INIT`` restarts by inertia.
    """
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    k = min(k, n)
    xx = (X * X).sum(axis=1)[:, None]  # the squared norms, once for every distance pass
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for r in range(_N_INIT):
        g = np.random.default_rng(seed + 1000 * r)
        centers = _kmeanspp_init(X, xx, k, g)
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(_MAX_ITER):
            d2 = _sq_dists(X, xx, centers)
            new_labels = d2.argmin(axis=1)
            if (new_labels == labels).all() and _ > 0:
                break
            labels = new_labels
            for j in range(k):
                pts = X[labels == j]
                if len(pts):
                    centers[j] = pts.sum(axis=0) / len(pts)  # pts.mean(axis=0)'s operations
                else:  # re-seed empty cluster at the farthest point
                    centers[j] = X[d2.min(axis=1).argmax()]
        inertia = float(_sq_dists(X, xx, centers).min(axis=1).sum())
        if best is None or inertia < best[0]:
            best = (inertia, labels.copy(), centers.copy())
    assert best is not None
    return best[1], best[2]


def assign_nearest(X: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Assign label -1 points to the nearest labeled cluster's centroid.

    This is the paper's Table-I post-pass ("run the k-means iteration on
    the final AdaWave result to assign any detected noise objects to a
    'true' cluster"). If everything is noise, one cluster of everything.
    """
    labels = np.asarray(labels, dtype=np.int64).copy()
    mask = labels >= 0
    if not mask.any():
        return np.zeros_like(labels)
    if mask.all():
        return labels
    ks = np.unique(labels[mask])
    centers = np.vstack([X[labels == j].mean(axis=0) for j in ks])
    d2 = pairwise_sq_dists(X[~mask], centers)
    labels[~mask] = ks[d2.argmin(axis=1)]
    return labels
