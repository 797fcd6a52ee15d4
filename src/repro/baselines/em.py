"""EM baseline (model-based family) — Spark-native Gaussian mixture.

``pyspark.ml.clustering.GaussianMixture`` is the expectation-maximization
fit of a multivariate Gaussian mixture, which is exactly the paper's "EM"
competitor [26]: each cluster is one Gaussian component, points go to the
component with the highest posterior.
"""
from __future__ import annotations

import numpy as np
from pyspark.ml.clustering import GaussianMixture
from pyspark.sql import SparkSession

from repro.baselines.kmeans import _features_df

__all__ = ["em_spark"]

_SEED = 11


def em_spark(spark: SparkSession, X: np.ndarray, k: int) -> np.ndarray:
    """Fit a k-component GMM by EM; returns MAP component labels."""
    df = _features_df(spark, np.asarray(X, dtype=np.float64))
    model = GaussianMixture(k=k, seed=_SEED, featuresCol="features").fit(df)
    pred = model.transform(df).select("id", "prediction").toPandas()
    return pred.sort_values("id")["prediction"].to_numpy(dtype=np.int64)
