"""Reproduce the Fig. 10 runtime comparison (wall time vs n at 75 % noise).

Usage: spark-submit jobs/run_fig10_runtime.py [n1 n2 ...]
"""
from __future__ import annotations

import json
import sys

from repro.harness.fig10 import DEFAULT_SIZES, run_fig10
from repro.session import get_session, provenance


def main() -> None:
    sizes = tuple(int(a) for a in sys.argv[1:]) or DEFAULT_SIZES
    spark = get_session("fig10")
    print(f"# {json.dumps(provenance(spark))}")
    results = run_fig10(spark, total_sizes=sizes)
    print(results.to_string(index=False))
    print("\n=== median seconds by n ===")
    print(results.pivot(index="algorithm", columns="n", values="seconds").to_string())
    spark.stop()


if __name__ == "__main__":
    main()
