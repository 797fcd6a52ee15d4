"""Fig. 10 benchmark: runtime growth with n at 75 % noise.

Times AdaWave / k-means / DBSCAN / SkinnyDip at two sizes each so the
pytest-benchmark table exposes the growth rate (the paper compares
asymptotic trends only). The full sweep with EM is
``python jobs/run_fig10_runtime.py``.
"""
from __future__ import annotations

import time

import pytest

from repro.baselines.dbscan import dbscan
from repro.baselines.skinnydip import skinnydip
from repro.datasets.synthetic import paper_synthetic, to_spark
from repro.core.adawave import adawave
from repro.baselines.kmeans import kmeans_spark

_SIZES = (8_000, 32_000)


def _data(n_total):
    npc = max(1, int(n_total * 0.25 / 5))
    return paper_synthetic(0.75, n_per_cluster=npc, seed=0)


@pytest.mark.parametrize("n_total", _SIZES)
def test_fig10_adawave(benchmark, spark, n_total):
    X, y = _data(n_total)
    df = to_spark(spark, X)
    benchmark.pedantic(
        lambda: adawave(df, ["x0", "x1"]).select("cluster").distinct().collect(),
        rounds=2, iterations=1, warmup_rounds=1,
    )


@pytest.mark.parametrize("n_total", _SIZES)
def test_fig10_kmeans(benchmark, spark, n_total):
    X, _ = _data(n_total)
    benchmark.pedantic(lambda: kmeans_spark(spark, X, 5), rounds=2, iterations=1)


@pytest.mark.parametrize("n_total", _SIZES)
def test_fig10_dbscan(benchmark, n_total):
    X, _ = _data(n_total)
    benchmark.pedantic(lambda: dbscan(X, 0.02, 8), rounds=2, iterations=1)


@pytest.mark.parametrize("n_total", (8_000, 16_000))
def test_fig10_skinnydip(benchmark, n_total):
    # smaller top size: the pure-python dip recursion dominates wall time
    X, _ = _data(n_total)
    benchmark.pedantic(lambda: skinnydip(X), rounds=1, iterations=1)
