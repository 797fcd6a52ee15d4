"""AdaWave benchmark: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload synth2d_200k --seed 1 --seconds 8 --trace 0

Run from the repository root. Set-up (Spark session start, input
generation, load/cache/count, one untimed warm pass) is timed as
``setup_s``; then passes repeat until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, measured by
wrapping the program's layer functions from outside (see tracing.py).
Every pass's outputs are checked. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the process exits
non-zero when a call raised or missed a check. Provenance, pass times and
spans go to ``.perfbench/`` under the repository root.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here, before heavy imports

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = "64"  # as jobs/_session.py
WARM_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- Spark session -----------------------------------------------------------
def start_spark(cores: int):
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)  # py4j and pyspark temp files stay in the checkout
    # no JVM writes its perf-data file to /tmp
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    # a fixed, pre-touched heap: the JVM's peak RSS is then the heap plus
    # its off-heap peak (Arrow buffers, metaspace, code cache, threads),
    # not the collector's adaptive heap growth, which varies run to run
    java_opts = (
        f"-Xms{DRIVER_MEMORY} -XX:+AlwaysPreTouch -XX:-UsePerfData -Djava.io.tmpdir={tmp} "
        f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}"
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(OUT / 'spark-local'))}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM process to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def jvm_peak_rss_mb(spark) -> float:
    pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status of the Spark JVM")


def provenance(spark, args, cores: int) -> dict:
    import numpy as np

    sha = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = r.stdout.strip() or sha
    mem_total_kb = None
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_total_kb = int(line.split()[1])
    sc = spark.sparkContext
    return {
        "git_sha": os.environ.get("PERFBENCH_GIT_SHA", sha),
        "nproc": os.cpu_count(),
        "mem_total_gb": round(mem_total_kb / 2**20, 1) if mem_total_kb else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "spark": sc.version,
        "master": sc.master,
        "local_cores": cores,
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- passes ------------------------------------------------------------------
class Run:
    """Runs and checks passes of one workload; counts attempts and failures."""

    def __init__(self, spark, workload, datasets):
        self.spark = spark
        self.sc = spark.sparkContext
        self.wl = workload
        self.datasets = datasets
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None  # labels of the warm pass, per call

    def one(self, tracer, group: str | None = None):
        """One checked pass; returns (seconds, calls, root span) or None if it raised.

        ``group`` puts the whole pass under one Spark job group (untraced
        passes); a traced pass's chained spans set their own groups.
        """
        if group is not None:
            self.sc.setJobGroup(group, "pass")
        t = time.perf_counter()
        try:
            with tracer.span("pass") as root:
                calls = self.wl.run_pass(self.spark, self.datasets, tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += self.wl.calls_per_pass(self.datasets)
            self.failed += self.wl.calls_per_pass(self.datasets)
            self.problems.append("a call raised")
            return None
        finally:
            if group is not None:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
        dt = time.perf_counter() - t
        self.attempted += len(calls)
        bad = self.wl.check(calls)
        if self.reference is None:
            self.reference = [c.labels for c in calls]
        else:
            bad += [
                (c.name, "labels differ from the warm pass")
                for c, ref in zip(calls, self.reference)
                if not (c.labels.shape == ref.shape and (c.labels == ref).all())
            ]
        self.failed += len({name for name, _ in bad})
        self.problems += [f"{name}: {msg}" for name, msg in bad]
        return dt, calls, root


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def measure(args, spark, run: Run) -> tuple[dict, dict]:
    """End-to-end run (trace 0). Returns (metrics, details)."""
    from tracing import NullTracer, drain_listener_bus

    null = NullTracer()
    times, groups, last = [], [], None
    t_start = time.perf_counter()
    while True:
        g = f"pass-{len(times)}"
        r = run.one(null, g)
        if r is None:
            break
        times.append(r[0])
        groups.append(g)
        last = r[1]
        if time.perf_counter() - t_start >= args.seconds:
            break
    drain_listener_bus(run.sc)
    jobs = [len(run.sc.statusTracker().getJobIdsForGroup(g)) for g in groups]
    details = {"pass_s": times, "spark_jobs_per_pass": jobs}
    if not times:
        return {}, details
    q1, med, q3 = quartiles(times)
    metrics = {
        "points_per_s": (run.wl.points(run.datasets) / med, "points/s"),
        "setup_s": (args.setup_s, "s"),
        "ami": (run.wl.quality(last), "ami"),
        "py_peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "jvm_peak_rss_mb": (jvm_peak_rss_mb(spark), "MB"),
    }
    details.update(passes=len(times), pass_s_q1=q1, pass_s_median=med, pass_s_q3=q3)
    if len(set(jobs)) > 1:
        run.problems.append(f"Spark jobs per pass vary: {jobs}")
    details["spark_jobs"] = statistics.median(jobs)
    return metrics, details


def measure_traced(args, spark, run: Run) -> tuple[dict, dict]:
    """Per-layer run (trace 1): untraced and traced passes alternate."""
    from tracing import CHAIN_SPANS, NESTED_SPANS, NullTracer, Tracer, drain_listener_bus, spark_group_stats
    from workloads import COMPARATORS

    null = NullTracer()
    tracer = Tracer(run.sc)
    plain, traced, plain_groups = [], [], []
    roots, calls_by_root = [], []
    t_start = time.perf_counter()
    while True:
        g = f"pass-{len(plain)}"
        r = run.one(null, g)
        if r is None:
            break
        plain.append(r[0])
        plain_groups.append(g)
        with tracer.installed():
            r = run.one(tracer)
        if r is None:
            break
        traced.append(r[0])
        calls_by_root.append(r[1])
        roots.append(r[2])
        if time.perf_counter() - t_start >= args.seconds:
            break
    if not traced:
        return {}, {}
    drain_listener_bus(run.sc)
    jobs_plain = [len(run.sc.statusTracker().getJobIdsForGroup(g)) for g in plain_groups]
    spark_jobs = statistics.median(jobs_plain)

    per_pass = []  # metric -> value, one dict per traced pass
    for root, calls in zip(roots, calls_by_root):
        vals = {}
        children = [s for s in tracer.spans if s.parent == root.call_id]
        chained = [s for s in children if s.group is not None]
        for name in CHAIN_SPANS:
            wall = jobs = task = shuffle = 0.0
            for s in chained:
                if s.name == name:
                    st = spark_group_stats(run.sc, s.group)
                    wall += s.end - s.start
                    jobs += st["jobs"]
                    task += st["task_s"]
                    shuffle += st["shuffle_mb"]
            vals[f"{name}.wall_s"] = wall
            vals[f"{name}.jobs"] = jobs
            vals[f"{name}.task_s"] = task
            vals[f"{name}.shuffle_mb"] = shuffle
        for algo in COMPARATORS:
            vals[f"baselines.{algo}.wall_s"] = sum(s.end - s.start for s in children if s.name == f"baselines.{algo}")
        comparator_ids = {s.call_id for s in children if s.name.startswith("baselines.")}
        for name in NESTED_SPANS:
            mine = [s for s in tracer.spans if s.name == name and s.parent in comparator_ids]
            vals[f"{name}.calls"] = len(mine)
            vals[f"{name}.wall_s"] = sum(s.end - s.start for s in mine)
        models = [c.model for c in calls if c.model is not None]
        vals["quantize.grid_cells"] = sum(m.n_grid_cells for m in models)
        vals["wavelet.transformed_cells"] = sum(m.n_transformed_cells for m in models)
        vals["threshold.kept_cells"] = sum(m.n_kept_cells for m in models)
        vals["threshold.keep_ratio"] = (
            vals["threshold.kept_cells"] / vals["wavelet.transformed_cells"] if models else 0.0
        )
        vals["components.clusters"] = sum(m.n_clusters for m in models)

        # the spans must account for the pass: jobs sum to the untraced
        # pass's count, and top-level spans cover its wall time
        span_jobs = sum(vals[f"{n}.jobs"] for n in CHAIN_SPANS)
        if span_jobs != spark_jobs:
            run.problems.append(f"span jobs {span_jobs} != spark_jobs {spark_jobs}")
        covered = sum(s.end - s.start for s in children)
        if covered < 0.95 * (root.end - root.start):
            run.problems.append(f"spans cover {covered:.3f}s of a {root.end - root.start:.3f}s pass")
        per_pass.append(vals)

    metrics = {k: (statistics.median(p[k] for p in per_pass), _unit(k)) for k in per_pass[0]}
    metrics["spark_jobs"] = (spark_jobs, "count")
    metrics["trace_overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "fraction")

    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(span_file, "w") as f:
        for s in tracer.spans:
            f.write(json.dumps(s.as_dict()) + "\n")
    details = {
        "plain_pass_s": plain,
        "traced_pass_s": traced,
        "spark_jobs_per_pass": jobs_plain,
        "spans_file": str(span_file.relative_to(ROOT)),
        "spans": len(tracer.spans),
    }
    return metrics, details


def _unit(name: str) -> str:
    for suffix, unit in ((".wall_s", "s"), (".task_s", "s"), (".shuffle_mb", "MB"), ("_frac", "fraction"), ("_ratio", "fraction")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: program source not found at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    # one core is left to the Python driver and the JVM's JIT and GC
    # threads, which otherwise compete with the executor threads
    cores = max(1, min(4, os.cpu_count() or 1) - 1)
    from tracing import NullTracer

    spark = start_spark(cores)
    try:
        marks = [("session_s", time.perf_counter())]
        prov = provenance(spark, args, cores)
        datasets = wl.datasets(args.seed)
        marks.append(("inputs_s", time.perf_counter()))
        wl.load(spark, datasets)
        marks.append(("load_s", time.perf_counter()))
        run = Run(spark, wl, datasets)
        # untimed warm passes pay JIT, codegen and the dip null tables
        for _ in range(WARM_PASSES):
            warm = run.one(NullTracer())
            if warm is None:
                break
        marks.append(("warm_passes_s", time.perf_counter()))
        args.setup_s = marks[-1][1] - T0
        setup_parts = {name: t - prev for (name, t), prev in zip(marks, [T0] + [t for _, t in marks])}
        if warm is None:
            metrics, details = {}, {}
        elif args.trace:
            metrics, details = measure_traced(args, spark, run)
        else:
            metrics, details = measure(args, spark, run)
    finally:
        stop_spark(spark)

    correct = bool(metrics) and not run.problems and run.failed == 0
    for p in run.problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    record = {
        "provenance": prov,
        "setup_s": args.setup_s,
        "setup_parts": setup_parts,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / max(1, run.attempted),
        "problems": run.problems,
        "details": details,
        "metrics": {k: v for k, (v, _u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    print("provenance " + json.dumps(prov))
    if not args.trace and "spark_jobs" in details:
        print(
            f"{args.workload}: {details['passes']} passes, pass_s median {details['pass_s_median']:.3f} "
            f"(q1 {details['pass_s_q1']:.3f}, q3 {details['pass_s_q3']:.3f}); "
            f"spark_jobs {details['spark_jobs']:g} count; failed_frac {record['failed_frac']:g}"
        )
    for k, (v, u) in metrics.items():
        print(f"  {k:42s} {v:14.6g} {u}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
