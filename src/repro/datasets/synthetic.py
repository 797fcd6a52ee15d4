"""The paper's synthetic benchmark (Section V-B / Fig. 7).

Five 2-D clusters of ``n_per_cluster`` objects each, exercising the shape
variety the paper describes — an approximate rectangle, two *overlapping*
rings, and a *concentric* ring pair (nested clusters) — plus
uniform noise over the unit square at a chosen percentage ``gamma`` of
the total dataset.

Returns ``(X, y)`` with ``y = -1`` for noise and ``0..4`` for clusters;
deterministic in ``seed``. ``to_spark`` wraps any (X, y) pair as a
checkpointed Spark DataFrame with an ``id`` column so labels can be
re-aligned after clustering.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

__all__ = ["five_clusters", "add_uniform_noise", "paper_synthetic", "to_spark"]


def _bar(
    g: np.random.Generator, n: int, x0: float, x1: float, y0: float, y1: float
) -> np.ndarray:
    """Approximate rectangle: uniform block + sigma=0.005 Gaussian jitter."""
    pts = np.column_stack([g.uniform(x0, x1, n), g.uniform(y0, y1, n)])
    return pts + g.normal(0.0, 0.005, pts.shape)


def _ring(
    g: np.random.Generator, n: int, cx: float, cy: float, r: float, width: float
) -> np.ndarray:
    theta = g.uniform(0.0, 2 * np.pi, n)
    rad = r + g.normal(0.0, width, n)
    return np.column_stack([cx + rad * np.cos(theta), cy + rad * np.sin(theta)])


def five_clusters(n_per_cluster: int = 5600, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The five noise-free clusters; labels 0..4."""
    g = np.random.default_rng(seed)
    n = n_per_cluster
    # The paper's shape mix, chosen to defeat centroid methods and
    # per-dimension projection methods alike:
    # - 0/1: two long *parallel bars* ("approximate rectangles that are
    #   not completely overlapped") — Voronoi cells cut across both;
    # - 2/3: rings whose x- and y-*projections* overlap ("overlapping
    #   circular distributions in the directions of x and y") while being
    #   disjoint in 2-D — fatal for SkinnyDip, fine for a grid method;
    # - 4: a ring *concentric* around ring 2 ("circular in concentric
    #   distribution") — nested clusters, linearly inseparable.
    parts = [
        _bar(g, n, 0.05, 0.45, 0.62, 0.70),           # 0: bar
        _bar(g, n, 0.05, 0.45, 0.74, 0.82),           # 1: parallel bar
        _ring(g, n, 0.62, 0.26, 0.075, 0.006),        # 2: inner ring
        _ring(g, n, 0.86, 0.46, 0.075, 0.006),        # 3: ring, projections
        _ring(g, n, 0.62, 0.26, 0.160, 0.006),        # 4: ring concentric w/ 2
    ]
    X = np.vstack(parts)
    y = np.repeat(np.arange(5), n)
    return X, y


def add_uniform_noise(
    X: np.ndarray, y: np.ndarray, gamma: float, seed: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Add uniform-unit-square noise so it makes up ``gamma`` of the total.

    ``gamma`` in [0, 1); noise points get label -1. Matches the paper's
    construction ("sampling from the uniform distribution over the unit
    square", gamma = 20..90 %).
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    n_sig = len(X)
    n_noise = int(round(n_sig * gamma / (1.0 - gamma)))
    g = np.random.default_rng(seed)
    noise = g.random((n_noise, 2))
    Xn = np.vstack([X, noise])
    yn = np.concatenate([y, np.full(n_noise, -1, dtype=np.int64)])
    perm = g.permutation(len(Xn))  # order-insensitivity: shuffle rows
    return Xn[perm], yn[perm]


def paper_synthetic(
    gamma: float = 0.5, n_per_cluster: int = 5600, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """One dataset of the paper's noise sweep at noise fraction ``gamma``."""
    X, y = five_clusters(n_per_cluster, seed)
    return add_uniform_noise(X, y, gamma, seed + 1)


def to_spark(spark: SparkSession, X: np.ndarray, y: np.ndarray | None = None) -> DataFrame:
    """(X, y) -> Spark DataFrame with columns id, x0..x{d-1}[, label].

    The frame is a local checkpoint: its rows are materialized once, here,
    in Spark's block manager, and its lineage does not hold them. A frame
    from ``createDataFrame`` alone keeps its rows inside the partitions of
    its source RDD, so every task of every job over it, cached or not, is
    shipped its slice of the data. Local checkpoints are not fault-tolerant:
    blocks lost with an executor cannot be recomputed. That is acceptable
    for data built on the driver for tests and experiments.
    """
    X = np.asarray(X, dtype=np.float64)
    cols = {f"x{j}": X[:, j] for j in range(X.shape[1])}
    pdf = pd.DataFrame({"id": np.arange(len(X), dtype=np.int64), **cols})
    if y is not None:
        pdf["label"] = np.asarray(y, dtype=np.int64)
    return spark.createDataFrame(pdf).localCheckpoint()
