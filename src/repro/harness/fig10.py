"""Fig. 10: runtime growth with dataset size at 75 % noise.

The paper compares its Python AdaWave against R/Java baselines and says
to read only the *asymptotic trends*; we do the same within one process:
AdaWave (Spark), k-means (MLlib), EM (MLlib), DBSCAN (ours, one eps, no
sweep — the sweep is an accuracy protocol, not a runtime one) and
SkinnyDip (ours). n is scaled by inflating the five synthetic clusters
with the noise percentage fixed at 75 %, exactly the paper's protocol.

The repository's one runtime loop (``jobs/bench_adawave.py`` calls it):
per (n, algorithm) ``_WARMUPS`` untimed calls, then ``_REPEATS`` timed calls,
each in its own Spark job group. AdaWave's frame comes from ``to_spark``,
timed by the same loop; the MLlib rows still build theirs inside the call.
"""
from __future__ import annotations

import statistics
import time
import uuid

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.dbscan import MIN_PTS, dbscan
from repro.baselines.em import em_spark
from repro.baselines.kmeans import kmeans_spark
from repro.baselines.skinnydip import skinnydip
from repro.core.adawave import adawave
from repro.datasets.synthetic import paper_synthetic, to_spark

__all__ = ["run_fig10", "DEFAULT_SIZES"]

DEFAULT_SIZES = (8_000, 16_000, 32_000, 64_000)
FIG10_ALGOS = ("adawave", "kmeans", "em", "dbscan", "skinnydip")
GAMMA = 0.75  # the noise share at every size
_REPEATS = 3  # timed calls per (n, algorithm): the median of >= 3 warm runs
# untimed calls before them: they pay JVM start-up, codegen and the dip null
# table; one was not enough for the first size of a process to reach steady state
_WARMUPS = 3


def _timed(spark: SparkSession, call) -> tuple[list[float], list[int], object]:
    """Seconds and Spark jobs of each timed ``call()``, and its last result."""
    sc = spark.sparkContext
    secs, jobs = [], []
    for _ in range(_WARMUPS + _REPEATS):
        group = f"fig10-{uuid.uuid4().hex}"
        sc.setJobGroup(group, "one timed call")
        try:
            t0 = time.perf_counter()
            out = call()
            secs.append(time.perf_counter() - t0)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        jobs.append(len(sc.statusTracker().getJobIdsForGroup(group)))
    return secs[_WARMUPS:], jobs[_WARMUPS:], out


def run_fig10(
    spark: SparkSession,
    *,
    total_sizes: tuple[int, ...] = DEFAULT_SIZES,
    algorithms: tuple[str, ...] = FIG10_ALGOS,
) -> pd.DataFrame:
    """One row per (n, algorithm): median, min and max seconds of the timed
    calls, the Spark jobs of one call, and on AdaWave rows ``ingest_s``."""
    rows = []
    for n_total in total_sizes:
        X, _ = paper_synthetic(GAMMA, n_per_cluster=max(1, int(n_total * (1 - GAMMA) / 5)))
        for algo in algorithms:
            row = {"n": len(X), "algorithm": algo}
            if algo == "adawave":
                ingest, _, df = _timed(spark, lambda: to_spark(spark, X))
                row["ingest_s"] = round(statistics.median(ingest), 4)
                call = lambda: adawave(df, ["x0", "x1"]).select("id", "cluster").toPandas()  # noqa: E731
            else:
                call = {
                    "kmeans": lambda: kmeans_spark(spark, X, 5),  # the true k, as in Table I
                    "em": lambda: em_spark(spark, X, 5),
                    "dbscan": lambda: dbscan(X, eps=0.02, min_pts=MIN_PTS),
                    "skinnydip": lambda: skinnydip(X),
                }[algo]
            secs, jobs, _ = _timed(spark, call)
            row.update(seconds=round(statistics.median(secs), 4), min_s=round(min(secs), 4),
                       max_s=round(max(secs), 4), spark_jobs=max(jobs))
            rows.append(row)
    return pd.DataFrame(rows)
