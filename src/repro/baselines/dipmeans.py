"""DipMeans baseline (Kalogeratos & Likas, NIPS 2012), from scratch.

Incremental k-means wrapper that estimates k: starting from k=1, each
cluster is tested for unimodality — every member is a "viewer" whose
vector of distances to the other members gets a dip test; if more than a
``_VIEWER_FRAC`` share of viewers see multimodality (p <= ``_ALPHA``), the
cluster is a split candidate. The candidate with the highest share is
split in two (2-means on its members) and the process repeats until no
candidate remains.

The clusters' viewers are dip-tested as a race (after Maron & Moore's
Hoeffding races, NIPS 1993, with certain bounds instead of probable
ones): after i of nv viewers, ``hits`` multimodal, a cluster's final
share lies in [hits/nv, (hits + nv - i)/nv], and a cluster leaves the
race once that interval shows it cannot be the first highest share above
``_VIEWER_FRAC``. The chosen split is exactly that of testing every viewer.

Distances within large clusters are subsampled (``_MAX_VIEWERS`` viewers,
``_MAX_TARGETS`` targets) to keep the O(|c|^2) dip stage bounded; this is
an implementation cap, not an algorithmic change.
"""
from __future__ import annotations

from collections.abc import Callable

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


def _race(nv: list[int], hit: Callable[[int, int], bool], viewer_frac: float) -> int:
    """The first j with the highest share ``hits_j / nv[j]`` above
    ``viewer_frac``, or -1 when no share is above it.

    ``hit(j, i)`` tells whether viewer i of cluster j is a hit; each
    cluster's viewers are asked for in order 0, 1, ..., and only until
    the answer is certain. Float division is monotone, so for a fixed nv
    the bounds on the share are floats that bracket the final one.
    """
    k = len(nv)
    tested, hits = [0] * k, [0] * k
    live = list(range(k))  # in label order
    while True:
        lo = [h / n for h, n in zip(hits, nv)]
        hi = [(h + n - i) / n for h, n, i in zip(hits, nv, tested)]
        # the best lower bound, lowest label on a tie: a cluster that can
        # at most equal it loses to it unless its own label is lower
        b = max(live, key=lo.__getitem__)
        live = [
            j for j in live
            if hi[j] > viewer_frac and (hi[j] > lo[b] or (hi[j] == lo[b] and j <= b))
        ]
        if not live:
            return -1
        if len(live) == 1 and lo[live[0]] > viewer_frac:
            return live[0]
        # of two live clusters at most one is fully tested
        j = max((j for j in live if tested[j] < nv[j]), key=hi.__getitem__)
        if hit(j, tested[j]):
            hits[j] += 1
        tested[j] += 1


def _split_candidate(X: np.ndarray, labels: np.ndarray, k: int, g: np.random.Generator) -> int:
    """The cluster DipMeans splits next (the first with the highest share of
    multimodal viewers above ``_VIEWER_FRAC``), or -1 for none."""
    # every cluster's viewers and targets are drawn, in label order, before
    # any test, so the stream of g does not depend on what the race skips
    draws: list[tuple[np.ndarray, np.ndarray] | None] = []
    for j in range(k):
        members = X[labels == j]
        m = len(members)
        if m < 8:  # share 0: one viewer that is never a hit
            draws.append(None)
            continue
        viewers = members if m <= _MAX_VIEWERS else members[g.choice(m, _MAX_VIEWERS, replace=False)]
        targets = members if m <= _MAX_TARGETS else members[g.choice(m, _MAX_TARGETS, replace=False)]
        draws.append((viewers, targets))
    rows: list[np.ndarray | None] = [None] * k  # viewer-to-target distances

    def hit(j: int, i: int) -> bool:
        if draws[j] is None:
            return False
        if rows[j] is None:  # sorted once, so each dip skips its sort
            rows[j] = np.sort(np.sqrt(pairwise_sq_dists(*draws[j])), axis=1, kind="mergesort")
        row = rows[j][i]
        return dip_pvalue(dip(row, sort=False), row.size, n_boot=_N_BOOT) <= _ALPHA

    nv = [1 if dr is None else len(dr[0]) for dr in draws]
    return _race(nv, hit, _VIEWER_FRAC)


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
