"""Scale trajectory of one AdaWave call: append a record to BENCH_adawave.json.

Usage: python jobs/bench_adawave.py   (from the repository root)

The record holds ``run_fig10``'s AdaWave rows at n = 40k, 400k and 2M,
the host facts of ``repro.session.provenance`` and the JVM's peak RSS.
"""
from __future__ import annotations

import json
import os
import time
from pathlib import Path

# one driver heap size for every record, sized for the 2M-row input and its
# label collect (the default is 1 GB); a spark-submit --driver-memory wins
os.environ.setdefault("PYSPARK_SUBMIT_ARGS", "--driver-memory 4g pyspark-shell")

from repro.harness.fig10 import GAMMA, run_fig10  # noqa: E402
from repro.session import get_session, provenance  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "BENCH_adawave.json"
SIZES = (40_000, 400_000, 2_000_000)
# the earlier records' field names, so the trajectory reads as one table
_EARLIER_NAMES = {"ingest_s": "to_spark_s", "seconds": "median_s", "spark_jobs": "spark_jobs_per_call"}


def main() -> None:
    spark = get_session("bench-adawave")
    rows = run_fig10(spark, total_sizes=SIZES, algorithms=("adawave",))
    pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    with open(f"/proc/{pid}/status") as f:
        peak_kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    record = {
        **provenance(spark),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "gamma": GAMMA,
        "sizes": rows.drop(columns="algorithm").rename(columns=_EARLIER_NAMES).to_dict("records"),
        "jvm_peak_rss_mb": round(peak_kb / 1024, 1),
    }
    spark.stop()

    records = json.loads(OUT.read_text()) if OUT.exists() else []
    records.append(record)
    OUT.write_text(json.dumps(records, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("git_sha", "sizes")}))


if __name__ == "__main__":
    main()
