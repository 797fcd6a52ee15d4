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
noise is non-trivial; this implementation exhibits the same failure mode
because noise inflates every cluster's covariance until merging is
always the cheaper description.
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


def _noise_bits(n_dims: int, box_lo: np.ndarray, box_hi: np.ndarray) -> float:
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
    noise_rate = _noise_bits(d, lo, hi)

    for _ in range(_MAX_ROUNDS):
        # --- purification ---------------------------------------------
        for j in np.unique(labels[labels >= 0]):
            idx = np.flatnonzero(labels == j)
            if len(idx) <= d + 1:
                labels[idx] = -1
                continue
            pts = X[idx]
            mu = pts.mean(axis=0)
            cov = np.cov(pts.T) if d > 1 else np.atleast_2d(np.var(pts))
            bits = _gauss_bits(pts, mu, np.atleast_2d(cov))
            labels[idx[bits > noise_rate]] = -1

        ks = np.unique(labels[labels >= 0])
        if len(ks) <= 1:
            break
        # --- merging: best pair by MDL saving -------------------------
        best = None
        stats = {}
        for j in ks:
            pts = X[labels == j]
            cov = np.cov(pts.T) if d > 1 else np.atleast_2d(np.var(pts))
            stats[j] = (pts, pts.mean(axis=0), np.atleast_2d(cov))
        for a_i, a in enumerate(ks):
            for b in ks[a_i + 1 :]:
                pa, mua, cova = stats[a]
                pb, mub, covb = stats[b]
                sep = (
                    _gauss_bits(pa, mua, cova).sum()
                    + _gauss_bits(pb, mub, covb).sum()
                    + 2 * _model_cost_bits(len(pa) + len(pb), d)
                )
                both = np.vstack([pa, pb])
                muj = both.mean(axis=0)
                covj = np.cov(both.T) if d > 1 else np.atleast_2d(np.var(both))
                joint = _gauss_bits(both, muj, np.atleast_2d(covj)).sum() + _model_cost_bits(
                    len(both), d
                )
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
