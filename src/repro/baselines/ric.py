"""RIC baseline (Böhm et al., KDD 2006), simplified — see DESIGN.md § 5.

Robust Information-theoretic Clustering purifies a coarse preliminary
clustering with the minimum-description-length principle. Our
simplification keeps the decision structure and the MDL currency:

1. preliminary clustering: k-means with a generous k,
2. *purification*: a point stays in its cluster only if coding it under
   the cluster's Gaussian model is cheaper than coding it as uniform
   background noise over the data's bounding box,
3. *merging*: two clusters merge when a joint Gaussian codes their points
   more cheaply than the two separate models (each model charged a
   per-parameter cost of 0.5 log2 n bits).

The paper reports RIC collapsing to a single cluster (AMI ~ 0) whenever
noise is non-trivial. This implementation does not collapse; it
over-splits. Two parts of one Gaussian that k-means cut apart code more
cheaply under two Gaussians than under one joint Gaussian, even with the
second model's parameters charged, so no merge fires on separated
clusters and k stays at the k-means start ``k0`` (fewer only where
purification empties a cluster). On two separated Gaussian blobs of
1 000 rows each it returns k0 = 10 clusters, each inside one blob.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.api import kmeans_np

__all__ = ["ric"]

_LOG2E = float(np.log2(np.e))
_MAX_ROUNDS = 10  # purify/merge rounds
_SEED = 41


def _gauss_bits(pts: np.ndarray, mu: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Per-point code length (bits) under N(mu, cov), regularized."""
    d = pts.shape[1]
    cov = cov + 1e-6 * np.eye(d)
    sign, logdet = np.linalg.slogdet(cov)
    inv = np.linalg.inv(cov)
    diff = pts - mu
    mahal = np.einsum("ij,jk,ik->i", diff, inv, diff)
    log_pdf = -0.5 * (d * np.log(2 * np.pi) + logdet + mahal)
    return -log_pdf * _LOG2E


def _fit_bits(pts: np.ndarray) -> np.ndarray:
    """Per-point code length (bits) under the Gaussian fitted to ``pts``."""
    cov = np.cov(pts.T) if pts.shape[1] > 1 else np.var(pts)
    return _gauss_bits(pts, pts.mean(axis=0), np.atleast_2d(cov))


def _noise_bits(box_lo: np.ndarray, box_hi: np.ndarray) -> float:
    """Per-point code length under a uniform model over the bounding box."""
    span = np.maximum(box_hi - box_lo, 1e-12)
    return float(np.log2(span).sum())


def _model_cost_bits(n: int, d: int) -> float:
    """MDL charge for one Gaussian model: 0.5*log2(n) per parameter."""
    n_params = d + d * (d + 1) / 2
    return 0.5 * np.log2(max(n, 2)) * n_params


def ric(X: np.ndarray) -> np.ndarray:
    """Purified clustering; labels 0..k-1 with -1 for noise points."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    k0 = max(2, min(10, int(np.sqrt(n / 10))))  # the generous preliminary k
    labels, _ = kmeans_np(X, k0, seed=_SEED)
    lo, hi = X.min(axis=0), X.max(axis=0)
    noise_rate = _noise_bits(lo, hi)

    for _ in range(_MAX_ROUNDS):
        # --- purification ---------------------------------------------
        for j in np.unique(labels[labels >= 0]):
            idx = np.flatnonzero(labels == j)
            if len(idx) <= d + 1:
                labels[idx] = -1
                continue
            bits = _fit_bits(X[idx])
            labels[idx[bits > noise_rate]] = -1

        ks = np.unique(labels[labels >= 0])
        if len(ks) <= 1:
            break
        # --- merging: best pair by MDL saving -------------------------
        best = None
        pts = {j: X[labels == j] for j in ks}
        own = {j: _fit_bits(pts[j]).sum() for j in ks}
        for a_i, a in enumerate(ks):
            for b in ks[a_i + 1 :]:
                both = np.vstack([pts[a], pts[b]])
                sep = own[a] + own[b] + 2 * _model_cost_bits(len(both), d)
                joint = _fit_bits(both).sum() + _model_cost_bits(len(both), d)
                saving = sep - joint
                if saving > 0 and (best is None or saving > best[0]):
                    best = (saving, a, b)
        if best is None:
            break
        _, a, b = best
        labels[labels == b] = a

    # renumber to 0..k-1 keeping -1
    out = np.full(n, -1, dtype=np.int64)
    clustered = labels >= 0
    out[clustered] = np.unique(labels[clustered], return_inverse=True)[1]
    return out
