"""Table II: per-attribute Pearson correlation with class (Glass).

The paper uses this table to show why Glass is hard: most attributes are
nearly uncorrelated with the class, so per-dimension methods fail while
AdaWave's connected grid components in the full 9-D space still work.

We compute the same statistic on the synthetic Glass stand-in with a
Spark aggregation (``F.corr``) — the generator was built to match the
paper's correlation signs and magnitudes on the informative attributes
(Na, Mg, Al, Ba).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.datasets.synthetic import to_spark
from repro.datasets.uci_like import glass

__all__ = ["PAPER_TABLE2", "GLASS_ATTRS", "run_table2"]

GLASS_ATTRS = ("RI", "Na", "Mg", "Al", "Si", "K", "Ca", "Ba", "Fe")

# correlation of each attribute with class, as printed in the paper
PAPER_TABLE2 = {
    "RI": -0.1642, "Na": 0.5030, "Mg": -0.7447, "Al": 0.5988, "Si": 0.1515,
    "K": -0.0100, "Ca": 0.0007, "Ba": 0.5751, "Fe": -0.1879,
}


def run_table2(spark: SparkSession) -> pd.DataFrame:
    """Correlation of each synthetic-Glass attribute with the class label."""
    X, y = glass()
    df = to_spark(spark, X, y)
    aggs = [
        F.corr(F.col(f"x{j}"), F.col("label")).alias(attr)
        for j, attr in enumerate(GLASS_ATTRS)
    ]
    row = df.agg(*aggs).first()
    return pd.DataFrame(
        {
            "attribute": GLASS_ATTRS,
            "correlation": [round(float(row[a]), 4) for a in GLASS_ATTRS],
            "paper_correlation": [PAPER_TABLE2[a] for a in GLASS_ATTRS],
        }
    )
