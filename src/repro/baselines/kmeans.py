"""k-means baseline (centroid family) — Spark-native via ``pyspark.ml``.

The paper runs standard k-means with the correct k ("we similarly set the
correct k to achieve automatic clustering and ensure the best AMI
result"). We use MLlib's distributed Lloyd's implementation; the input
frame comes from ``to_spark``, and ``array_to_vector`` packs its feature
columns into one vector column.
"""
from __future__ import annotations

import numpy as np
from pyspark.ml.clustering import KMeans
from pyspark.ml.functions import array_to_vector
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.datasets.synthetic import to_spark

__all__ = ["kmeans_spark"]

_SEED = 7


def _features_df(spark: SparkSession, X: np.ndarray):
    """``to_spark(spark, X)`` in one partition, plus a ``features`` vector of
    x0..x{d-1}.

    MLlib's k-means|| and GMM initialisations sample per partition, and
    their sums are merged in the order tasks finish, so with the host's
    ``defaultParallelism`` partitions the labels depend on the core count.
    One partition, in id order, makes them a function of the data.
    """
    cols = [F.col(f"x{j}") for j in range(X.shape[1])]
    return to_spark(spark, X).coalesce(1).withColumn("features", array_to_vector(F.array(*cols)))


def _fit_predict(spark: SparkSession, X: np.ndarray, estimator) -> np.ndarray:
    """Fit an MLlib clustering ``estimator`` on X; its labels aligned with rows."""
    df = _features_df(spark, np.asarray(X, dtype=np.float64))
    pred = estimator.fit(df).transform(df).select("id", "prediction").toPandas()
    return pred.sort_values("id")["prediction"].to_numpy(dtype=np.int64)


def kmeans_spark(spark: SparkSession, X: np.ndarray, k: int) -> np.ndarray:
    """Cluster rows of X into k groups; returns labels aligned with rows."""
    return _fit_predict(spark, X, KMeans(k=k, seed=_SEED, featuresCol="features"))
