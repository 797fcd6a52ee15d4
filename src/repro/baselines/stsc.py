"""Self-tuning spectral clustering baseline (Zelnik-Manor & Perona 2004).

Local-scale affinity A_ij = exp(-||xi-xj||^2 / (sigma_i sigma_j)) with
sigma_i the distance to the 7th nearest neighbour, symmetric-normalized
Laplacian, top-k eigenvectors (numpy ``eigh`` — no scipy in container),
row normalization, then k-means in the embedding.

The caller gives k, as the paper gives the automated baselines the correct
k (DESIGN.md § 5.5). The affinity is O(n^2) in memory and the ``eigh``
O(n^3) in time, so ``run_algo`` fits STSC on a capped sample and extends
the labels to the other rows itself.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.api import kmeans_np, pairwise_sq_dists

__all__ = ["stsc"]

_K_NN = 7  # sigma_i is the distance to this nearest neighbour
_SEED = 31


def stsc(X: np.ndarray, k: int) -> np.ndarray:
    """Spectral cluster labels 0..k-1 of every row of X (no noise concept)."""
    X = np.asarray(X, dtype=np.float64)
    n = len(X)

    d2 = pairwise_sq_dists(X, X)
    order = np.sort(d2, axis=1)
    sigma = np.sqrt(order[:, min(_K_NN, n - 1)])
    sigma[sigma == 0] = np.min(sigma[sigma > 0]) if (sigma > 0).any() else 1.0
    A = np.exp(-d2 / np.outer(sigma, sigma))
    np.fill_diagonal(A, 0.0)

    deg = A.sum(axis=1)
    deg[deg == 0] = 1e-12
    Dm12 = 1.0 / np.sqrt(deg)
    L = Dm12[:, None] * A * Dm12[None, :]
    _, evecs = np.linalg.eigh(L)  # ascending eigenvalues
    evecs = evecs[:, ::-1]  # descending

    V = evecs[:, :k]
    norms = np.linalg.norm(V, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    V = V / norms
    labels, _ = kmeans_np(V, k, seed=_SEED)
    return labels
