"""DipMeans baseline (Kalogeratos & Likas, NIPS 2012), from scratch.

Incremental k-means wrapper that estimates k: starting from k=1, each
cluster is tested for unimodality — every member is a "viewer" whose
vector of distances to the other members gets a dip test; if more than a
``_VIEWER_FRAC`` share of viewers see multimodality (p <= ``_ALPHA``), the
cluster is a split candidate. The candidate with the highest share is
split in two (2-means on its members) and the process repeats until no
candidate remains.

Every viewer of every cluster is tested: a cluster's viewer-to-target
distances are one matrix, and all its viewers' dips come from one call of
the C dip kernel (``repro.stats.dip``), their p-values from one vectorised
table lookup.

Distances within large clusters are subsampled (``_MAX_VIEWERS`` viewers,
``_MAX_TARGETS`` targets) to keep the O(|c|^2) dip stage bounded; this is
an implementation cap, not an algorithmic change.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.api import kmeans_np, pairwise_sq_dists
from repro.stats.dip import dip_pvalue, dip

__all__ = ["dipmeans"]

_ALPHA = 0.01  # a viewer is a hit at dip p-value <= this
_VIEWER_FRAC = 0.01  # a cluster is a split candidate above this share of hits
_MAX_K = 20  # at most this many clusters
_MAX_VIEWERS = 100
_MAX_TARGETS = 500
_N_BOOT = 500  # bootstrap size of the dip test's null table
_SEED = 23


def _split_candidate(X: np.ndarray, labels: np.ndarray, k: int, g: np.random.Generator) -> int:
    """The cluster DipMeans splits next (the first with the highest share of
    multimodal viewers above ``_VIEWER_FRAC``), or -1 for none."""
    shares = []
    for j in range(k):
        members = X[labels == j]
        m = len(members)
        if m < 8:  # share 0: one viewer that is never a hit
            shares.append(0.0)
            continue
        viewers = members if m <= _MAX_VIEWERS else members[g.choice(m, _MAX_VIEWERS, replace=False)]
        targets = members if m <= _MAX_TARGETS else members[g.choice(m, _MAX_TARGETS, replace=False)]
        # row i: viewer i's distances to the targets, sorted, so the dips skip
        # their sort. Any sort gives the same bits: a distance is never -0.0
        # (a sum of squares is not), so values that compare equal are equal.
        rows = np.sort(np.sqrt(pairwise_sq_dists(viewers, targets)), axis=1)
        p = dip_pvalue(dip(rows, sort=False), rows.shape[1], n_boot=_N_BOOT)
        shares.append(np.count_nonzero(p <= _ALPHA) / len(rows))
    best = max(range(k), key=shares.__getitem__)  # the first on a tie
    return best if shares[best] > _VIEWER_FRAC else -1


def dipmeans(X: np.ndarray) -> np.ndarray:
    """Cluster with automatically estimated k; labels 0..k-1 (no noise)."""
    X = np.asarray(X, dtype=np.float64)
    g = np.random.default_rng(_SEED)
    labels = np.zeros(len(X), dtype=np.int64)
    k = 1
    while k < _MAX_K:
        j_best = _split_candidate(X, labels, k, g)
        if j_best < 0:
            break
        # split cluster j_best with 2-means, then refine globally
        idx = np.flatnonzero(labels == j_best)
        sub, _ = kmeans_np(X[idx], 2, seed=_SEED + k)
        labels[idx[sub == 1]] = k
        k += 1
        labels, _ = kmeans_np(X, k, seed=_SEED)  # global refinement
    return labels
