"""Regenerate the paper's artefacts: Table I, Table II, Fig 8 and Fig 10.

Usage: python jobs/reproduce.py [table1 | table2 | fig8 | fig10 ...]
(from the repository root; no argument regenerates all four)

Each artefact's harness runs at its defaults, which are the paper's scale,
and writes ``results/<artefact>.txt``: a provenance line (``# `` and the
JSON of ``repro.session.provenance``), the tidy frame, then the pivot if
the artefact has one. Spark logs to stderr; EXPERIMENTS.md redirects it
to ``results/<artefact>.log``.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

# the driver heap of jobs/bench_adawave.py, so Fig 10 and BENCH_adawave.json
# time AdaWave alike (the default is 1 GB); a spark-submit --driver-memory wins
os.environ.setdefault("PYSPARK_SUBMIT_ARGS", "--driver-memory 4g pyspark-shell")

from pyspark.sql import SparkSession  # noqa: E402

from repro.harness.fig8 import run_fig8  # noqa: E402
from repro.harness.fig10 import run_fig10  # noqa: E402
from repro.harness.table1 import run_table1, table1_matrix  # noqa: E402
from repro.harness.table2 import run_table2  # noqa: E402
from repro.session import get_session, provenance  # noqa: E402

RESULTS = Path(__file__).resolve().parent.parent / "results"
# artefact -> (its harness runner, the pivot written after the tidy frame)
ARTEFACTS = {
    "table1": (run_table1, table1_matrix),
    "table2": (run_table2, None),
    "fig8": (run_fig8, lambda r: r.pivot(index="algorithm", columns="gamma", values="ami")),
    "fig10": (run_fig10, lambda r: r.pivot(index="algorithm", columns="n", values="seconds")),
}


def write(spark: SparkSession, name: str, out_dir: Path = RESULTS) -> Path:
    """Run one artefact's harness on ``spark`` and write ``out_dir/<name>.txt``."""
    run, pivot = ARTEFACTS[name]
    header = f"# {json.dumps(provenance(spark))}"
    results = run(spark)
    parts = [header, results.to_string(index=False)]
    if pivot is not None:
        parts += ["", pivot(results).to_string()]
    path = out_dir / f"{name}.txt"
    path.write_text("\n".join(parts) + "\n")
    return path


def main() -> None:
    names = sys.argv[1:] or list(ARTEFACTS)
    if unknown := [n for n in names if n not in ARTEFACTS]:
        sys.exit(f"unknown artefact(s) {unknown}; known: {list(ARTEFACTS)}")
    spark = get_session("reproduce")
    for name in names:
        print(write(spark, name), flush=True)
    spark.stop()


if __name__ == "__main__":
    main()
