"""The one SparkSession builder and host-facts record, shared by the tests and the job scripts."""
from __future__ import annotations

import os
import subprocess
from pathlib import Path

from pyspark.sql import SparkSession


def get_session(app: str) -> SparkSession:
    """Arrow on, automatic broadcast joins off, no console progress bars."""
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


def provenance(spark: SparkSession) -> dict:
    """Where a measurement ran: git SHA, cores, memory, Spark version, master, driver heap."""
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent, capture_output=True, text=True)
    mem_bytes = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    sc = spark.sparkContext
    return {
        "git_sha": sha.stdout.strip() or "unknown",
        "host": {"cores": os.cpu_count(), "mem_total_gb": round(mem_bytes / 2**30, 1)},
        "spark": sc.version,
        "master": sc.master,
        "driver_memory": sc.getConf().get("spark.driver.memory", "1g"),
    }
