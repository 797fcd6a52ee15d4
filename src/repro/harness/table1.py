"""Table I: AMI of 8 algorithms on the nine (UCI-like) datasets.

Per the paper's protocol (Section V-C): every point carries a semantic
class label and none of the datasets has a noise label, so algorithms
that emit noise get the k-means-style post-pass assigning noise points to
the nearest detected cluster before scoring; class labels are the AMI
ground truth.

``run_table1`` returns a tidy pandas frame (dataset, algorithm, ami,
paper_ami, seconds, capped), and ``table1_matrix`` pivots it into the
paper's algorithm-by-dataset matrix. The paper's numbers are embedded in
``PAPER_TABLE1`` for EXPERIMENTS.md diffing.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets import uci_like
from repro.harness.common import ALGORITHMS, run_algo
from repro.metrics.ami import ami

__all__ = ["PAPER_TABLE1", "run_table1", "table1_matrix"]

# AMI values as printed in the paper's Table I.
PAPER_TABLE1: dict[str, dict[str, float]] = {
    "seeds": {"adawave": 0.475, "skinnydip": 0.348, "dbscan": 0.000, "em": 0.512,
              "kmeans": 0.607, "stsc": 0.523, "dipmeans": 0.000, "ric": 0.003},
    "roadmap": {"adawave": 0.735, "skinnydip": 0.484, "dbscan": 0.313, "em": 0.246,
                "kmeans": 0.619, "stsc": 0.564, "dipmeans": 0.459, "ric": 0.001},
    "iris": {"adawave": 0.663, "skinnydip": 0.306, "dbscan": 0.604, "em": 0.750,
             "kmeans": 0.601, "stsc": 0.734, "dipmeans": 0.657, "ric": 0.424},
    "glass": {"adawave": 0.467, "skinnydip": 0.268, "dbscan": 0.170, "em": 0.243,
              "kmeans": 0.136, "stsc": 0.367, "dipmeans": 0.135, "ric": 0.350},
    "dumdh": {"adawave": 0.470, "skinnydip": 0.348, "dbscan": 0.073, "em": 0.343,
              "kmeans": 0.213, "stsc": 0.000, "dipmeans": 0.000, "ric": 0.131},
    "htru2": {"adawave": 0.217, "skinnydip": 0.154, "dbscan": 0.000, "em": 0.151,
              "kmeans": 0.116, "stsc": 0.000, "dipmeans": 0.000, "ric": 0.000},
    "dermatology": {"adawave": 0.667, "skinnydip": 0.638, "dbscan": 0.620, "em": 0.336,
                    "kmeans": 0.465, "stsc": 0.608, "dipmeans": 0.296, "ric": 0.053},
    "motor": {"adawave": 1.000, "skinnydip": 1.000, "dbscan": 1.000, "em": 0.705,
              "kmeans": 0.835, "stsc": 1.000, "dipmeans": 1.000, "ric": 0.522},
    "wholesale": {"adawave": 0.735, "skinnydip": 0.866, "dbscan": 0.696, "em": 0.578,
                  "kmeans": 0.826, "stsc": 0.568, "dipmeans": 0.426, "ric": 0.308},
}


def run_table1(
    spark: SparkSession,
    *,
    datasets: list[str] | None = None,
    algorithms: tuple[str, ...] = ALGORITHMS,
) -> pd.DataFrame:
    """Run the Table I experiment; returns one row per (dataset, algo)."""
    rows = []
    for name in datasets or list(uci_like.DATASETS):
        X, y = uci_like.make(name)
        k_true = len(np.unique(y))
        for algo in algorithms:
            res = run_algo(spark, algo, X, y, k_true=k_true, assign_noise=True)
            score = ami(y, res.labels)
            rows.append(
                {
                    "dataset": name,
                    "algorithm": algo,
                    "ami": round(float(score), 3),
                    "paper_ami": PAPER_TABLE1[name][algo],
                    "seconds": round(res.seconds, 2),
                    "capped": res.capped,
                }
            )
    return pd.DataFrame(rows)


def table1_matrix(results: pd.DataFrame) -> pd.DataFrame:
    """Pivot the tidy results into the paper's dataset-x-algorithm matrix."""
    return results.pivot(index="algorithm", columns="dataset", values="ami")
