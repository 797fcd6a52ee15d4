"""Fig. 8: AMI vs noise percentage on the paper's synthetic benchmark.

Although figures are out of scope for number-matching, this sweep is the
paper's primary quantitative claim (AdaWave dominates every baseline from
20 % to 90 % noise and degrades gracefully), so the harness reproduces it
and EXPERIMENTS.md records the curve's shape against the paper's
description.

Protocol (Section V-B): five clusters of ``n_per_cluster`` objects,
uniform noise at gamma = 20..90 %; AdaWave parameter-free; DBSCAN
automated with minPts=8 and the best eps in {0.01..0.2}; k-means/EM get
the correct k; AMI scored on the non-noise objects only.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.synthetic import paper_synthetic
from repro.harness.common import ALGORITHMS, run_algo
from repro.metrics.ami import ami

__all__ = ["run_fig8", "DEFAULT_GAMMAS"]

DEFAULT_GAMMAS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def run_fig8(
    spark: SparkSession,
    *,
    gammas: tuple[float, ...] = DEFAULT_GAMMAS,
    algorithms: tuple[str, ...] = ALGORITHMS,
    n_per_cluster: int = 5600,
) -> pd.DataFrame:
    """One row per (gamma, algorithm): AMI on non-noise points + runtime."""
    rows = []
    for gamma in gammas:
        X, y = paper_synthetic(gamma, n_per_cluster=n_per_cluster)
        eval_mask = y >= 0
        for algo in algorithms:
            res = run_algo(spark, algo, X, y, k_true=5, eval_mask=eval_mask)
            score = ami(y[eval_mask], res.labels[eval_mask])
            rows.append(
                {
                    "gamma": gamma,
                    "algorithm": algo,
                    "ami": round(float(score), 3),
                    "n": len(X),
                    "seconds": round(res.seconds, 2),
                    "capped": res.capped,
                }
            )
    return pd.DataFrame(rows)
