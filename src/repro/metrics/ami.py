"""Adjusted Mutual Information (AMI), implemented from scratch.

The container has no scikit-learn, so the paper's evaluation metric is
implemented from the formulas in Vinh, Epps & Bailey (JMLR 2010),
"Information Theoretic Measures for Clusterings Comparison". The expected
mutual information under the permutation model is computed exactly with
``math.lgamma``; normalization is the arithmetic mean of the entropies
(the modern sklearn default, ``average_method='arithmetic'``).

All functions take two integer label arrays of equal length. Label values
are arbitrary (they are re-indexed internally); a label of -1 is treated
as just another cluster — callers that want to exclude noise points must
mask them out first (the paper does this for the synthetic experiment).
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "contingency",
    "entropy",
    "mutual_info",
    "expected_mutual_info",
    "ami",
]


def contingency(labels_true: np.ndarray, labels_pred: np.ndarray) -> np.ndarray:
    """Dense contingency table C with C[i, j] = |true class i ∩ pred cluster j|."""
    lt = np.asarray(labels_true).ravel()
    lp = np.asarray(labels_pred).ravel()
    if lt.shape != lp.shape:
        raise ValueError(f"label arrays differ in length: {lt.shape} vs {lp.shape}")
    if lt.size == 0:
        raise ValueError("empty label arrays")
    _, ti = np.unique(lt, return_inverse=True)
    _, pi = np.unique(lp, return_inverse=True)
    r, c = ti.max() + 1, pi.max() + 1
    out = np.zeros((r, c), dtype=np.int64)
    np.add.at(out, (ti, pi), 1)
    return out


def entropy(labels: np.ndarray) -> float:
    """Shannon entropy (nats) of the empirical label distribution."""
    _, counts = np.unique(np.asarray(labels).ravel(), return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def mutual_info(c: np.ndarray) -> float:
    """Mutual information (nats) of a contingency table."""
    c = np.asarray(c, dtype=np.float64)
    n = c.sum()
    a = c.sum(axis=1, keepdims=True)  # row marginals
    b = c.sum(axis=0, keepdims=True)  # column marginals
    nz = c > 0
    outer = a @ b
    return float((c[nz] / n * (np.log(c[nz] * n) - np.log(outer[nz]))).sum())


def expected_mutual_info(c: np.ndarray) -> float:
    """Exact E[MI] under the hypergeometric (fixed-marginals) null model.

    Direct transcription of eq. (24a) in Vinh et al. 2010. Cost is
    O(R * C * N) in the worst case, fine for clustering-sized tables.
    """
    c = np.asarray(c, dtype=np.int64)
    a = c.sum(axis=1)
    b = c.sum(axis=0)
    n = int(c.sum())
    # lg[v] = lgamma(v), log_[v] = log(v) for 1 <= v <= n + 1, each computed once
    lg = [math.inf, *map(math.lgamma, range(1, n + 2))]
    log_ = [-math.inf, *map(math.log, range(1, n + 2))]
    log_n = log_[n]
    emi = 0.0
    for ai in a.tolist():
        log_ai = log_[ai]
        for bj in b.tolist():
            log_bj = log_[bj]
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            # constant part of the log hypergeometric pmf for this (ai, bj)
            const = (
                lg[ai + 1]
                + lg[bj + 1]
                + lg[n - ai + 1]
                + lg[n - bj + 1]
                - lg[n + 1]
            )
            for nij in range(lo, hi + 1):
                log_p = const - (
                    lg[nij + 1]
                    + lg[ai - nij + 1]
                    + lg[bj - nij + 1]
                    + lg[n - ai - bj + nij + 1]
                )
                emi += (nij / n) * (log_[nij] + log_n - log_ai - log_bj) * math.exp(log_p)
    return emi


def ami(labels_true: np.ndarray, labels_pred: np.ndarray) -> float:
    """Adjusted mutual information in [~0, 1]; 1 iff partitions are identical.

    Degenerate cases follow sklearn: if both labellings put everything in a
    single cluster, or both split every point into its own cluster, the
    partitions are identical and AMI is defined as 1.0.
    """
    c = contingency(labels_true, labels_pred)
    n = int(c.sum())
    r, k = c.shape
    if (r == k == 1) or (r == k == n):
        return 1.0
    mi = mutual_info(c)
    emi = expected_mutual_info(c)
    h_true = entropy(labels_true)
    h_pred = entropy(labels_pred)
    mean_h = 0.5 * (h_true + h_pred)
    denom = mean_h - emi
    if abs(denom) < 1e-15:
        # MI == EMI == mean entropy: no information beyond chance.
        return 0.0
    return float((mi - emi) / denom)
