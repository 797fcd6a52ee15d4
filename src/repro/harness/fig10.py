"""Fig. 10: runtime growth with dataset size at 75 % noise.

The paper compares its Python AdaWave against R/Java baselines and says
to read only the *asymptotic trends*; we do the same within one process:
AdaWave (Spark), k-means (MLlib), EM (MLlib), DBSCAN (ours, one eps, no
sweep — the sweep is an accuracy protocol, not a runtime one) and
SkinnyDip (ours). n is scaled by inflating the five synthetic clusters
with the noise percentage fixed at 75 %, exactly the paper's protocol.
"""
from __future__ import annotations

import time

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.dbscan import MIN_PTS, dbscan
from repro.baselines.skinnydip import skinnydip
from repro.datasets.synthetic import paper_synthetic
from repro.harness.common import run_algo

__all__ = ["run_fig10", "DEFAULT_SIZES"]

DEFAULT_SIZES = (8_000, 16_000, 32_000, 64_000)
FIG10_ALGOS = ("adawave", "kmeans", "em", "dbscan", "skinnydip")
_GAMMA = 0.75  # the noise share at every size


def run_fig10(
    spark: SparkSession,
    *,
    total_sizes: tuple[int, ...] = DEFAULT_SIZES,
    algorithms: tuple[str, ...] = FIG10_ALGOS,
) -> pd.DataFrame:
    """One row per (n, algorithm) with wall-clock seconds."""
    # Warm-up: the first Spark job pays JVM/codegen start-up and the first
    # dip test builds its cached bootstrap null table — neither belongs in
    # an asymptotic-trend measurement.
    Xw, yw = paper_synthetic(_GAMMA, n_per_cluster=80)
    run_algo(spark, "adawave", Xw, yw, k_true=5)
    run_algo(spark, "kmeans", Xw, yw, k_true=5)
    skinnydip(Xw[:400])

    rows = []
    for n_total in total_sizes:
        n_per_cluster = max(1, int(n_total * (1 - _GAMMA) / 5))
        X, y = paper_synthetic(_GAMMA, n_per_cluster=n_per_cluster)
        for algo in algorithms:
            if algo == "dbscan":
                t0 = time.perf_counter()
                dbscan(X, eps=0.02, min_pts=MIN_PTS)
                secs = time.perf_counter() - t0
            elif algo == "skinnydip":
                t0 = time.perf_counter()
                skinnydip(X)
                secs = time.perf_counter() - t0
            else:
                res = run_algo(spark, algo, X, y, k_true=5)
                secs = res.seconds
            rows.append(
                {"n": len(X), "algorithm": algo, "seconds": round(secs, 3)}
            )
    return pd.DataFrame(rows)
