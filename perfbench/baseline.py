"""Measure a baseline: every workload of BENCHMARK.json on several seeds.

    python3 perfbench/baseline.py --seeds 1-10

Runs ``run.py`` once per (workload, seed) with tracing off, each in a
fresh process, plus one traced run per workload on the first seed. Writes
``perfbench/baseline.json``: per workload and end-to-end metric the median,
quartiles, spread (quartile distance over median) and bound; the traced
run's per-layer metrics; and the provenance of the first run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    print(f"{workload} seed {seed} trace {trace}: ok", flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = seed_list(args.seeds)
    secs = bench["run_seconds"]
    out = {"seeds": seeds, "run_seconds": secs, "workloads": {}}
    for w in (x["name"] for x in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            for k, v in run_once(w, seed, secs, 0)["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        e2e = {}
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            e2e[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"], "runs": xs,
            }
        traced = run_once(w, seeds[0], secs, 1)["metrics"]
        out["workloads"][w] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced.items()},
        }
    first = json.loads((ROOT / ".perfbench" / f"result-{bench['workloads'][0]['name']}-seed{seeds[0]}-trace0.json").read_text())
    out["provenance"] = {k: v for k, v in first["provenance"].items() if k not in ("workload", "seed", "trace")}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
