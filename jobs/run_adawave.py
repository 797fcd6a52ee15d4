"""Run AdaWave on the paper's synthetic benchmark and print a summary.

Usage: spark-submit jobs/run_adawave.py [gamma] [n_per_cluster]
"""
from __future__ import annotations

import sys

import numpy as np

from repro.core.adawave import adawave
from repro.datasets.synthetic import paper_synthetic, to_spark
from repro.metrics.ami import ami
from repro.session import get_session


def main() -> None:
    gamma = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    npc = int(sys.argv[2]) if len(sys.argv) > 2 else 5600
    spark = get_session("adawave")
    X, y = paper_synthetic(gamma, n_per_cluster=npc)
    df = to_spark(spark, X, y)
    out, model = adawave(df, ["x0", "x1"], keep_model=True)
    pdf = out.select("id", "label", "cluster").toPandas().sort_values("id")
    yt, yp = pdf["label"].to_numpy(), pdf["cluster"].to_numpy()
    mask = yt >= 0
    print(
        f"gamma={gamma} n={len(X)} clusters={model.n_clusters} "
        f"threshold={model.threshold:.3f} grid={model.n_grid_cells} "
        f"kept={model.n_kept_cells} AMI(non-noise)={ami(yt[mask], yp[mask]):.3f}"
    )
    spark.stop()


if __name__ == "__main__":
    main()
