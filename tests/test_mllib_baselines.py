"""Tests for the Spark-native k-means and EM (GMM) baseline wrappers."""
from __future__ import annotations

import numpy as np
import pytest

import repro.baselines.kmeans as kmeans_mod
from repro.baselines.em import em_spark
from repro.baselines.kmeans import kmeans_spark
from repro.metrics.ami import ami


@pytest.fixture(scope="module")
def blobs():
    g = np.random.default_rng(0)
    X = np.vstack([g.normal(c, 0.05, (120, 2)) for c in [(0, 0), (1, 0), (0, 1)]])
    y = np.repeat([0, 1, 2], 120)
    return X, y


class TestKMeansSpark:
    def test_blobs(self, spark, blobs):
        X, y = blobs
        labels = kmeans_spark(spark, X, 3)
        assert labels.shape == (len(X),)
        assert ami(y, labels) > 0.95

    def test_k_respected(self, spark, blobs):
        X, _ = blobs
        labels = kmeans_spark(spark, X, 2)
        assert len(np.unique(labels)) == 2

    def test_labels_aligned_with_rows(self, spark, blobs):
        X, y = blobs
        labels = kmeans_spark(spark, X, 3)
        # points of the same blob share a label almost surely
        for cls in range(3):
            block = labels[y == cls]
            assert (block == np.bincount(block).argmax()).mean() > 0.95


class TestEMSpark:
    def test_blobs(self, spark, blobs):
        X, y = blobs
        labels = em_spark(spark, X, 3)
        assert ami(y, labels) > 0.9

    def test_overlapping_gaussians_beat_chance(self, spark):
        g = np.random.default_rng(1)
        X = np.vstack([g.normal(0, 1, (300, 2)), g.normal(2.5, 1, (300, 2))])
        y = np.repeat([0, 1], 300)
        labels = em_spark(spark, X, 2)
        assert ami(y, labels) > 0.3

    def test_shape(self, spark, blobs):
        X, _ = blobs
        assert em_spark(spark, X, 3).shape == (len(X),)


def _sliced(p: int):
    """A ``to_spark`` whose frame holds the rows in p contiguous partitions."""

    def to_spark(spark, X):
        rows = [(i, *map(float, r)) for i, r in enumerate(X)]
        schema = "id long, " + ", ".join(f"x{j} double" for j in range(X.shape[1]))
        rdd = spark.sparkContext.parallelize(rows, p)
        return spark.createDataFrame(rdd, schema).localCheckpoint()

    return to_spark


class TestPartitioning:
    """MLlib labels are a function of the rows, not of how they are partitioned."""

    @pytest.mark.parametrize("fit", [kmeans_spark, em_spark], ids=["kmeans", "em"])
    def test_labels_independent_of_partitions(self, spark, fit, monkeypatch):
        g = np.random.default_rng(1)
        X = np.vstack([g.normal(c, 1, (300, 2)) for c in [(0, 0), (2.5, 2.5), (0, 4)]])
        labels = {}
        for p in (1, 2, 4, 16):
            monkeypatch.setattr(kmeans_mod, "to_spark", _sliced(p))
            assert kmeans_mod.to_spark(spark, X).rdd.getNumPartitions() == p
            labels[p] = fit(spark, X, 3)
        for p in (2, 4, 16):
            assert np.array_equal(labels[p], labels[1]), p
