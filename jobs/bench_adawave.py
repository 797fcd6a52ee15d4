"""Scale trajectory of one AdaWave call: append a record to BENCH_adawave.json.

Usage: python jobs/bench_adawave.py   (from the repository root)

For n = 40k, 400k and 2M points of the paper's synthetic set at 75 %
noise, the input frame comes from ``to_spark``. Each run is one
``adawave()`` call plus collecting ``(id, cluster)``; one untimed run per
size warms the JVM, then ``REPEATS`` runs are timed. The record holds the
git SHA, host facts, the Spark version, per size the median, min and max
of the timed runs, the Spark jobs of each call and their summed duration
from Spark's status store (the rest of a call is driver time), and the
per-layer medians of ``perfbench/run.py --workload synth2d_200k --seed 1
--seconds 8 --trace 1``, run after this script's own session has stopped.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one driver heap size for every record, sized for the 2M-row input and its
# label collect (the default is 1 GB); a spark-submit --driver-memory wins
os.environ.setdefault("PYSPARK_SUBMIT_ARGS", "--driver-memory 4g pyspark-shell")

from repro.core.adawave import adawave  # noqa: E402
from repro.datasets.synthetic import paper_synthetic, to_spark  # noqa: E402
from repro.session import get_session  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_adawave.json"
GAMMA = 0.75
SIZES = (40_000, 400_000, 2_000_000)
REPEATS = 5
LAYER_RUN = ["perfbench/run.py", "--workload", "synth2d_200k", "--seed", "1", "--seconds", "8", "--trace", "1"]


def _git_sha() -> str:
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def _proc_kb(path: str, key: str) -> int:
    with open(path) as f:
        for line in f:
            if line.startswith(key):
                return int(line.split()[1])
    raise RuntimeError(f"{key} missing from {path}")


def bench_size(spark, n: int) -> dict:
    X, _ = paper_synthetic(GAMMA, n_per_cluster=n // 20)  # 5 clusters are 25 % of n
    t = time.perf_counter()
    df = to_spark(spark, X)
    to_spark_s = time.perf_counter() - t
    sc = spark.sparkContext
    times, jobs, job_times = [], [], []
    for i in range(REPEATS + 1):
        group = f"bench-{n}-{i}"
        sc.setJobGroup(group, "one adawave call")
        t = time.perf_counter()
        try:
            adawave(df, ["x0", "x1"]).select("id", "cluster").toPandas()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        if i:  # run 0 is the warm-up
            times.append(time.perf_counter() - t)
            sc._jsc.sc().listenerBus().waitUntilEmpty()
            ids = list(sc.statusTracker().getJobIdsForGroup(group))
            jobs.append(len(ids))
            job_times.append(sum(_job_seconds(sc, j) for j in ids))
    driver = [t - j for t, j in zip(times, job_times)]
    return {
        "n": len(X),
        "to_spark_s": round(to_spark_s, 3),
        "median_s": round(statistics.median(times), 3),
        "min_s": round(min(times), 3),
        "max_s": round(max(times), 3),
        "runs_s": [round(x, 3) for x in times],
        "spark_jobs_per_call": jobs,
        # a call's wall time is its Spark jobs' time plus the driver's time
        # between them (planning, py4j calls, collects, driver-side numpy)
        "median_job_s": round(statistics.median(job_times), 3),
        "median_driver_s": round(statistics.median(driver), 3),
        "runs_job_s": [round(x, 3) for x in job_times],
    }


def _job_seconds(sc, job_id: int) -> float:
    """Submission to completion of one finished Spark job, from the status store."""
    job = sc._jsc.sc().statusStore().job(job_id)
    return (job.completionTime().get().getTime() - job.submissionTime().get().getTime()) / 1e3


def main() -> None:
    spark = get_session("bench-adawave")
    sc = spark.sparkContext
    record = {
        "git_sha": _git_sha(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {"cores": os.cpu_count(), "mem_total_gb": round(_proc_kb("/proc/meminfo", "MemTotal:") / 2**20, 1)},
        "spark": sc.version,
        "master": sc.master,
        "driver_memory": sc.getConf().get("spark.driver.memory", "1g"),
        "gamma": GAMMA,
        "sizes": [bench_size(spark, n) for n in SIZES],
    }
    pid = sc._jvm.java.lang.ProcessHandle.current().pid()
    record["jvm_peak_rss_mb"] = round(_proc_kb(f"/proc/{pid}/status", "VmHWM:") / 1024, 1)
    spark.stop()

    r = subprocess.run([sys.executable, *LAYER_RUN], cwd=ROOT, capture_output=True, text=True, check=True)
    metrics = json.loads(r.stdout.strip().splitlines()[-1])["metrics"]
    record["synth2d_200k_layers"] = {
        "command": " ".join(LAYER_RUN),
        "medians": {name: m["value"] for name, m in metrics.items()},
    }

    records = json.loads(OUT.read_text()) if OUT.exists() else []
    records.append(record)
    OUT.write_text(json.dumps(records, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("git_sha", "sizes")}))


if __name__ == "__main__":
    main()
