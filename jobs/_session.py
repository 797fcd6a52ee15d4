"""Shared SparkSession builder for the job entrypoints.

Jobs are written as functions over a SparkSession (see src/repro/harness)
so they are equally callable from pytest (via the conftest fixture) and
from ``spark-submit jobs/<name>.py``; this module only exists to give the
CLI path a session with the same settings as the test fixture.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_session(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
