"""Reproduce the Fig. 8 noise sweep (AMI vs noise percentage).

Usage: spark-submit jobs/run_fig8_noise_sweep.py [n_per_cluster]
"""
from __future__ import annotations

import sys

from repro.harness.fig8 import run_fig8
from repro.session import get_session


def main() -> None:
    npc = int(sys.argv[1]) if len(sys.argv) > 1 else 5600
    spark = get_session("fig8")
    results = run_fig8(spark, n_per_cluster=npc)
    print(results.to_string(index=False))
    print("\n=== AMI by noise level ===")
    print(results.pivot(index="algorithm", columns="gamma", values="ami").to_string())
    spark.stop()


if __name__ == "__main__":
    main()
