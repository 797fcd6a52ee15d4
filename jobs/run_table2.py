"""Reproduce Table II (Glass attribute/class correlations).

Usage: spark-submit jobs/run_table2.py
"""
from __future__ import annotations

from repro.harness.table2 import run_table2
from repro.session import get_session


def main() -> None:
    spark = get_session("table2")
    print(run_table2(spark).to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
