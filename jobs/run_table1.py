"""Reproduce Table I (AMI on the nine UCI-like datasets, 8 algorithms).

Usage: spark-submit jobs/run_table1.py [dataset ...]
Prints the tidy results and the paper-style matrix.
"""
from __future__ import annotations

import sys

from repro.harness.table1 import run_table1, table1_matrix
from repro.session import get_session


def main() -> None:
    datasets = sys.argv[1:] or None
    spark = get_session("table1")
    results = run_table1(spark, datasets=datasets)
    print(results.to_string(index=False))
    print("\n=== measured AMI matrix ===")
    print(table1_matrix(results).to_string())
    spark.stop()


if __name__ == "__main__":
    main()
