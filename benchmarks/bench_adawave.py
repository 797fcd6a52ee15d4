"""Core AdaWave pipeline benchmark: wall time at two data scales.

The paper's complexity claim is O(NM) with the data-sized work done in
one linear pass (quantization) — runtime should grow sub-linearly in n
on Spark because the grid-sized stages are n-independent.
"""
from __future__ import annotations

import pytest

from repro.core.adawave import adawave
from repro.datasets.synthetic import paper_synthetic, to_spark


@pytest.mark.parametrize("n_total", [10_000, 40_000])
def test_adawave_runtime(benchmark, spark, n_total):
    n_per_cluster = int(n_total * 0.25 / 5)  # 75 % noise, the Fig-10 setting
    X, y = paper_synthetic(0.75, n_per_cluster=n_per_cluster, seed=0)
    df = to_spark(spark, X, y)

    def run():
        out = adawave(df, ["x0", "x1"])
        return out.select("cluster").groupBy("cluster").count().collect()

    rows = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert len(rows) >= 2  # at least one cluster + noise
