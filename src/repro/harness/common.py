"""Shared experiment runner: one entry point per algorithm of the paper.

``run_algo(spark, algo, X, y, ...)`` runs a named algorithm and returns
``(labels, seconds)``. Conventions shared by all experiments:

- AdaWave runs distributed (Spark); k-means/EM run on Spark MLlib; the
  remaining comparators are the from-scratch numpy implementations.
- O(n^2)-ish comparators are fitted on a capped subsample and extended to
  the remaining points by nearest labeled neighbour (``_CAPS`` below,
  logged via the returned ``capped`` flag) — the paper ran the authors'
  single-node implementations, we care about the comparative shape. The
  sample is drawn here only, from ``_CAP_SEED``, and the labels are
  extended once: the comparators fit every row they are given, each by
  its own protocol (DBSCAN's unit scaling and eps sweep are
  ``dbscan_sweep``'s), so this module only samples, fits and extends.
- The correct k is supplied to k-means, EM and STSC, as the paper does
  for its automated baselines ("we similarly set the correct k ... to
  ensure the best AMI").
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.api import _extend_labels, assign_nearest
from repro.baselines.dbscan import dbscan_sweep
from repro.baselines.dipmeans import dipmeans
from repro.baselines.em import em_spark
from repro.baselines.kmeans import kmeans_spark
from repro.baselines.ric import ric
from repro.baselines.skinnydip import skinnydip
from repro.baselines.stsc import stsc
from repro.core.adawave import adawave
from repro.datasets.synthetic import to_spark

__all__ = ["ALGORITHMS", "run_algo", "AlgoResult"]

# fit-size caps for the super-linear comparators (see DESIGN.md § 4 /
# EXPERIMENTS.md "caps"): algorithm -> max points fitted directly.
# SkinnyDip and RIC grow about linearly in n and fit every row.
# DBSCAN's cap is high because subsampling would *change its answer* —
# thinning the data lowers the noise density below the percolation point,
# hiding exactly the collapse the paper reports at high noise percentages.
# Its brute-force path (d > 3) is O(n^2), but every such input the
# experiments pass is far below the cap (Table I's largest is 17 898 rows).
_CAPS = {
    "dbscan": 100_000,
    "dipmeans": 8_000,
    "stsc": 2_000,  # a dense n x n affinity and an O(n^3) eigh
}
_CAP_SEED = 97  # draws the capped comparators' fit sample

ALGORITHMS = ("adawave", "skinnydip", "dbscan", "em", "kmeans", "stsc", "dipmeans", "ric")


@dataclass
class AlgoResult:
    labels: np.ndarray
    seconds: float
    capped: bool = False


def run_algo(
    spark: SparkSession,
    algo: str,
    X: np.ndarray,
    y: np.ndarray,
    *,
    k_true: int,
    eval_mask: np.ndarray | None = None,
    assign_noise: bool = False,
) -> AlgoResult:
    """Run one algorithm; returns labels aligned to rows of X and wall time.

    ``eval_mask`` is forwarded to DBSCAN's eps sweep (its selection metric
    must match the experiment's). ``assign_noise=True`` applies the
    paper's Table-I post-pass mapping noise labels to the nearest cluster.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n = len(X)
    cap = _CAPS.get(algo)
    capped = cap is not None and n > cap
    g = np.random.default_rng(_CAP_SEED)
    sample = np.sort(g.choice(n, cap, replace=False)) if capped else np.arange(n)
    Xs, ys = X[sample], y[sample]

    t0 = time.perf_counter()
    if algo == "adawave":
        out = adawave(to_spark(spark, X), [f"x{j}" for j in range(X.shape[1])])
        pdf = out.select("id", "cluster").toPandas().sort_values("id")
        sub = pdf["cluster"].to_numpy(dtype=np.int64)
    elif algo == "kmeans":
        sub = kmeans_spark(spark, X, k_true)
    elif algo == "em":
        sub = em_spark(spark, X, k_true)
    elif algo == "dbscan":
        sub = dbscan_sweep(Xs, ys, eval_mask=None if eval_mask is None else eval_mask[sample])[0]
    elif algo == "skinnydip":
        sub = skinnydip(Xs)
    elif algo == "stsc":
        sub = stsc(Xs, k_true)
    elif algo == "dipmeans":
        sub = dipmeans(Xs)
    elif algo == "ric":
        sub = ric(Xs)
    else:
        raise ValueError(f"unknown algorithm {algo!r}; known: {ALGORITHMS}")
    labels = _extend_labels(X, sample, sub) if capped else sub  # uncapped: sample is every row
    seconds = time.perf_counter() - t0

    if assign_noise and (labels < 0).any():
        labels = assign_nearest(X, labels)
    return AlgoResult(labels=labels, seconds=seconds, capped=capped)
