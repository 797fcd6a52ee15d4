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

from repro.baselines.kmeans import _fit_predict

__all__ = ["em_spark"]

_SEED = 11


def em_spark(spark: SparkSession, X: np.ndarray, k: int) -> np.ndarray:
    """Fit a k-component GMM by EM; returns MAP component labels."""
    return _fit_predict(spark, X, GaussianMixture(k=k, seed=_SEED, featuresCol="features"))
