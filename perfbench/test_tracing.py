"""Fast checks that tracing leaves the program unchanged (tiny inputs).

Run with ``PYTHONPATH=src python -m pytest perfbench/ -q``. The benchmark's
files live outside ``tests/`` and ``benchmarks/``, so Tier-1 never
collects them.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.datasets import uci_like  # noqa: E402
from repro.datasets.synthetic import paper_synthetic, to_spark  # noqa: E402


def _targets():
    for table in (tracing.CHAINED, tracing.NESTED):
        for mod_name, names in table.items():
            for attr in names:
                yield importlib.import_module(mod_name), attr


@pytest.fixture(scope="module")
def tiny(spark):
    X, y = paper_synthetic(0.5, n_per_cluster=300, seed=3)
    ds = workloads.Dataset("synthetic", X, y, "fig8", to_spark(spark, X).cache())
    yield ds
    ds.df.unpersist()


def test_traced_adawave_labels_match_untraced(spark, tiny):
    plain = workloads._adawave_call(tiny, {}, tracing.NullTracer())
    tr = tracing.Tracer(spark.sparkContext, prefix="t1")
    with tr.installed():
        with tr.span("pass"):
            traced = workloads._adawave_call(tiny, {}, tr)
    np.testing.assert_array_equal(plain.labels, traced.labels)
    assert workloads.n_clusters(plain.labels) >= 2
    names = [s.name for s in tr.spans if s.group is not None]
    assert names[0] == "adawave.entry" and names[-1] == "adawave.label_join"
    assert "quantize.fit_grid" in names and "wavelet.dwt_spark" in names


def test_span_jobs_sum_to_pass_jobs_and_spans_cover_pass(spark, tiny):
    sc = spark.sparkContext
    sc.setJobGroup("t2-pass", "pass")
    workloads._adawave_call(tiny, {}, tracing.NullTracer())
    sc.setLocalProperty("spark.jobGroup.id", None)
    tr = tracing.Tracer(sc, prefix="t2")
    with tr.installed():
        with tr.span("pass") as root:
            workloads._adawave_call(tiny, {}, tr)
    tracing.drain_listener_bus(sc)
    pass_jobs = len(sc.statusTracker().getJobIdsForGroup("t2-pass"))
    links = [s for s in tr.spans if s.parent == root.call_id]
    assert pass_jobs > 0
    assert sum(tracing.spark_group_stats(sc, s.group)["jobs"] for s in links) == pass_jobs
    # links are contiguous and cover the pass up to the return statement
    for a, b in zip(links, links[1:]):
        assert a.end == b.start
    covered = links[-1].end - links[0].start
    assert covered >= 0.95 * (root.end - root.start)


def test_traced_comparator_labels_match_untraced(spark):
    X, y = uci_like.make("motor", seed=0)
    ds = workloads.Dataset("motor", X, y, "table1")
    plain = workloads._comparator_calls(spark, ds, tracing.NullTracer())
    tr = tracing.Tracer()
    with tr.installed():
        traced = workloads._comparator_calls(spark, ds, tr)
    for a, b in zip(plain, traced):
        np.testing.assert_array_equal(a.labels, b.labels)
    counts = {n: sum(s.name == n for s in tr.spans) for n in tracing.NESTED_SPANS}
    assert counts["stats.diptest"] > 0 and counts["stats.dip"] == counts["stats.dip_pvalue"] > 0


def test_every_name_restored_even_when_the_pass_raises():
    before = [(m, a, getattr(m, a)) for m, a in _targets()]
    tr = tracing.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tr.installed():
            assert all(getattr(m, a) is not f for m, a, f in before)
            raise RuntimeError("boom")
    assert all(getattr(m, a) is f for m, a, f in before)


def test_missing_name_fails_loudly(monkeypatch):
    import repro.core.adawave as mod

    before = [(m, a, getattr(m, a)) for m, a in _targets() if a != "dwt_spark"]
    monkeypatch.delattr(mod, "dwt_spark")
    with pytest.raises(AttributeError, match="repro.core.adawave.dwt_spark"):
        with tracing.Tracer().installed():
            pass
    assert all(getattr(m, a) is f for m, a, f in before)
