"""DipMeans baseline (Kalogeratos & Likas, NIPS 2012), from scratch.

Incremental k-means wrapper that estimates k: starting from k=1, each
cluster is tested for unimodality — every member is a "viewer" whose
vector of distances to the other members gets a dip test; if more than a
``viewer_frac`` share of viewers see multimodality (p <= alpha), the
cluster is a split candidate. The candidate with the highest share is
split in two (2-means on its members) and the process repeats until no
candidate remains.

A cluster's viewers stop being tested once it cannot beat the best share
so far (or ``viewer_frac``): after i of nv viewers, ``hits`` multimodal,
its share is at most (hits + nv - i) / nv, so the chosen split is exact.

Distances within large clusters are subsampled (``max_viewers`` viewers,
``max_targets`` targets) to keep the O(|c|^2) dip stage bounded; this is
an implementation cap, not an algorithmic change.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.api import kmeans_np, pairwise_sq_dists
from repro.stats.dip import dip_pvalue, dip

__all__ = ["dipmeans"]


def _split_score(
    members: np.ndarray,
    alpha: float,
    g: np.random.Generator,
    max_viewers: int,
    max_targets: int,
    n_boot: int,
    beat: float,
) -> float:
    """Fraction of sampled viewers whose distance vector is multimodal, or a
    value <= ``beat`` as soon as the fraction cannot exceed ``beat``."""
    m = len(members)
    if m < 8:
        return 0.0
    viewers = members if m <= max_viewers else members[g.choice(m, max_viewers, replace=False)]
    targets = members if m <= max_targets else members[g.choice(m, max_targets, replace=False)]
    d2 = pairwise_sq_dists(viewers, targets)
    nv = len(viewers)
    hits = 0
    for i, row in enumerate(np.sqrt(d2)):
        if (hits + nv - i) / nv <= beat:
            break
        p = dip_pvalue(dip(row), row.size, n_boot=n_boot)
        if p <= alpha:
            hits += 1
    return hits / nv


def dipmeans(
    X: np.ndarray,
    *,
    alpha: float = 0.01,
    viewer_frac: float = 0.01,
    max_k: int = 20,
    seed: int = 23,
    max_viewers: int = 100,
    max_targets: int = 500,
    n_boot: int = 500,
) -> np.ndarray:
    """Cluster with automatically estimated k; labels 0..k-1 (no noise)."""
    X = np.asarray(X, dtype=np.float64)
    g = np.random.default_rng(seed)
    labels = np.zeros(len(X), dtype=np.int64)
    k = 1
    while k < max_k:
        # the first cluster with the highest share above viewer_frac
        best, j_best = viewer_frac, -1
        for j in range(k):
            members = X[labels == j]
            score = _split_score(members, alpha, g, max_viewers, max_targets, n_boot, best)
            if score > best:
                best, j_best = score, j
        if j_best < 0:
            break
        # split cluster j_best with 2-means, then refine globally
        idx = np.flatnonzero(labels == j_best)
        sub, _ = kmeans_np(X[idx], 2, seed=seed + k)
        labels[idx[sub == 1]] = k
        k += 1
        labels, _ = kmeans_np(X, k, seed=seed)  # global refinement
    return labels
