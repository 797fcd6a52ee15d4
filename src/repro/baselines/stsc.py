"""Self-tuning spectral clustering baseline (Zelnik-Manor & Perona 2004).

Local-scale affinity A_ij = exp(-||xi-xj||^2 / (sigma_i sigma_j)) with
sigma_i the distance to the 7th nearest neighbour, symmetric-normalized
Laplacian, top-k eigenvectors (numpy ``eigh`` — no scipy in container),
row normalization, then k-means in the embedding.

k is either given or chosen by the eigengap heuristic among the top
``_MAX_K`` eigenvalues — a documented simplification of STSC's
rotation-alignment selection (DESIGN.md § 5). The O(n^2) affinity
is capped at ``_MAX_N`` points; out-of-sample points take the label of
their nearest sampled neighbour.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.api import _extend_labels, kmeans_np, pairwise_sq_dists

__all__ = ["stsc"]

_K_NN = 7  # sigma_i is the distance to this nearest neighbour
_MAX_K = 15  # the eigengap looks at this many top eigenvalues
_MAX_N = 2000  # the affinity's sample size
_SEED = 31


def stsc(X: np.ndarray, k: int | None = None) -> np.ndarray:
    """Spectral cluster labels 0..k-1 (no noise concept)."""
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    g = np.random.default_rng(_SEED)
    if n > _MAX_N:
        sample = np.sort(g.choice(n, _MAX_N, replace=False))
    else:
        sample = np.arange(n)
    S = X[sample]
    m = len(S)

    d2 = pairwise_sq_dists(S, S)
    order = np.sort(d2, axis=1)
    sigma = np.sqrt(order[:, min(_K_NN, m - 1)])
    sigma[sigma == 0] = np.min(sigma[sigma > 0]) if (sigma > 0).any() else 1.0
    A = np.exp(-d2 / np.outer(sigma, sigma))
    np.fill_diagonal(A, 0.0)

    deg = A.sum(axis=1)
    deg[deg == 0] = 1e-12
    Dm12 = 1.0 / np.sqrt(deg)
    L = Dm12[:, None] * A * Dm12[None, :]
    evals, evecs = np.linalg.eigh(L)  # ascending
    evals, evecs = evals[::-1], evecs[:, ::-1]  # descending

    if k is None:
        # eigengap heuristic on the top eigenvalues: take the *first* gap
        # comparable to the largest one (a later, marginally bigger gap
        # deep in the spectrum must not override an early clean split)
        top = evals[: min(_MAX_K, m)]
        gaps = -np.diff(top)
        if len(gaps) > 1:
            cut = 0.5 * float(gaps.max())
            candidates = np.flatnonzero(gaps >= max(cut, 1e-12))
            k = int(candidates[0]) + 1 if len(candidates) else 2
            k = max(k, 2)
        else:
            k = 2

    V = evecs[:, :k]
    norms = np.linalg.norm(V, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    V = V / norms
    sub_labels, _ = kmeans_np(V, k, seed=_SEED)

    return sub_labels if m == n else _extend_labels(X, sample, sub_labels)
