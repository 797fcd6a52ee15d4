"""Integration tests for the experiment harnesses (reduced sizes)."""
from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
import json
import re
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.baselines.api import kmeans_np
from repro.baselines.dbscan import dbscan, dbscan_sweep
from repro.baselines.dipmeans import dipmeans
from repro.baselines.em import em_spark
from repro.baselines.kmeans import kmeans_spark
from repro.baselines.ric import ric
from repro.baselines.skinnydip import skinnydip, unidip
from repro.baselines.stsc import stsc
from repro.core.adawave import AdaWaveModel
from repro.core.quantize import auto_scale
from repro.core.threshold import elbow_threshold
from repro.core.wavelet import dwt_spark
from repro.harness.common import ALGORITHMS, run_algo
from repro.harness.fig8 import run_fig8
from repro.harness.fig10 import run_fig10
from repro.harness.table1 import PAPER_TABLE1, run_table1, table1_matrix
from repro.harness.table2 import GLASS_ATTRS, PAPER_TABLE2, run_table2
from repro.metrics.ami import ami
from repro.stats.dip import dip_pvalue, diptest
from tests.oracles import dwt_dense

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def small_noisy(spark):
    from repro.datasets.synthetic import paper_synthetic

    return paper_synthetic(0.5, n_per_cluster=400, seed=1)


class TestRunAlgo:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_every_algorithm_runs(self, spark, algo, small_noisy):
        X, y = small_noisy
        res = run_algo(spark, algo, X, y, k_true=5, eval_mask=y >= 0)
        assert res.labels.shape == (len(X),)
        assert res.seconds > 0

    def test_dbscan_cap_covers_brute_path_inputs(self):
        # one DBSCAN cap for every dimension: the O(n^2) brute path (d > 3)
        # never reaches it, as every such Table I dataset is smaller
        from repro.datasets import uci_like
        from repro.harness.common import _CAPS

        assert set(_CAPS) == {"dbscan", "dipmeans", "stsc"}  # the rest fit every row
        assert _CAPS["dbscan"] == 100_000
        assert _CAPS["stsc"] == 2_000
        brute = {name: n for name, (_, n, d) in uci_like.DATASETS.items() if d > 3}
        assert brute and max(brute.values()) < _CAPS["dbscan"], brute

    def test_skinnydip_fits_every_row(self):
        # above the 50k cap SkinnyDip had before: one fit of all 52k rows
        from repro.datasets.synthetic import paper_synthetic

        X, y = paper_synthetic(0.75, n_per_cluster=2600)
        assert len(X) > 50_000
        res = run_algo(None, "skinnydip", X, y, k_true=5)
        assert not res.capped
        assert res.labels.shape == (len(X),)

    def test_unknown_algo_raises(self, spark, small_noisy):
        X, y = small_noisy
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_algo(spark, "hdbscan", X, y, k_true=5)

    def test_assign_noise_removes_minus_one(self, spark, small_noisy):
        X, y = small_noisy
        res = run_algo(spark, "adawave", X, y, k_true=5, assign_noise=True)
        assert (res.labels >= 0).all()

    @pytest.mark.parametrize("algo", ["dipmeans", "stsc"])
    def test_cap_and_extension(self, spark, algo):
        from repro.baselines.api import _extend_labels
        from repro.harness.common import _CAP_SEED, _CAPS

        g = np.random.default_rng(2)
        X = np.vstack([g.normal(c, 0.05, (5000, 2)) for c in [(0, 0), (1, 1)]])
        y = np.repeat([0, 1], 5000)
        res = run_algo(spark, algo, X, y, k_true=2)
        assert res.capped  # 10k > 8k (dipmeans) and 2k (stsc) caps
        assert res.labels.shape == (len(X),)
        assert ami(y, res.labels) > 0.9
        if algo == "stsc":  # fitted on run_algo's sample alone, extended once
            g = np.random.default_rng(_CAP_SEED)
            sample = np.sort(g.choice(len(X), _CAPS["stsc"], replace=False))
            assert np.array_equal(res.labels, _extend_labels(X, sample, stsc(X[sample], 2)))

    def test_extend_labels_matches_full_matrix_1nn(self):
        from repro.baselines.api import _extend_labels

        # a 4096-row sample maps the other rows in 1024-row chunks: three here
        g = np.random.default_rng(5)
        X = g.normal(size=(6596, 3))
        sample = np.sort(g.choice(len(X), 4096, replace=False))
        sub = g.integers(0, 5, len(sample))
        labels = _extend_labels(X, sample, sub)
        rest = np.setdiff1d(np.arange(len(X)), sample)
        S, B = X[sample], X[rest]
        d2 = (B * B).sum(axis=1)[:, None] + (S * S).sum(axis=1)[None, :] - 2.0 * (B @ S.T)
        assert np.array_equal(labels[sample], sub)
        assert np.array_equal(labels[rest], sub[d2.argmin(axis=1)])


class TestTable1:
    def test_small_subset(self, spark):
        r = run_table1(spark, datasets=["motor"], algorithms=("adawave", "kmeans"))
        assert set(r.columns) >= {"dataset", "algorithm", "ami", "paper_ami", "seconds"}
        assert len(r) == 2
        assert (r.ami >= 0).all() and (r.ami <= 1).all()
        # motor is the everyone-wins dataset in the paper
        assert (r.ami > 0.9).all()

    def test_matrix_pivot(self, spark):
        r = run_table1(spark, datasets=["motor"], algorithms=("adawave", "kmeans"))
        m = table1_matrix(r)
        assert m.loc["adawave", "motor"] > 0.9

    def test_paper_constants_complete(self):
        for ds, row in PAPER_TABLE1.items():
            assert set(row) == set(ALGORITHMS), ds


class TestTable2:
    def test_correlations(self, spark):
        r = run_table2(spark)
        assert list(r.attribute) == list(GLASS_ATTRS)
        assert r.correlation.abs().max() <= 1.0
        # the strong attributes carry the paper's signs
        by = dict(zip(r.attribute, r.correlation))
        assert by["Mg"] < -0.5
        assert by["Na"] > 0.3
        assert by["Al"] > 0.3
        assert by["Ba"] > 0.3

    def test_paper_constants(self):
        assert set(PAPER_TABLE2) == set(GLASS_ATTRS)


class TestFig8:
    def test_two_gammas_adawave_vs_kmeans(self, spark):
        # n_per_cluster >= ~2000 is where the grid statistics stabilise
        # (k=5 exactly, stable AMI); the paper itself runs 5600
        r = run_fig8(
            spark,
            gammas=(0.3, 0.5, 0.8),
            algorithms=("adawave", "kmeans"),
            n_per_cluster=2000,
        )
        assert len(r) == 6
        piv = r.pivot(index="algorithm", columns="gamma", values="ami")
        # the paper's headline: AdaWave dominates k-means on this data
        assert (piv.loc["adawave"] > piv.loc["kmeans"]).all()
        assert piv.loc["adawave"].min() > 0.5


class TestFig10:
    def test_runtime_rows(self, spark):
        r = run_fig10(spark, total_sizes=(2000, 4000), algorithms=("adawave", "dbscan"))
        assert len(r) == 4
        assert (r.seconds > 0).all()
        assert sorted(r.n.unique().tolist()) == [2000, 4000]
        assert ((r.min_s <= r.seconds) & (r.seconds <= r.max_s)).all()
        ada = r.algorithm == "adawave"
        assert r.spark_jobs[ada].between(1, 6).all()  # TestAdaWavePlan's bound
        assert (r.spark_jobs[~ada] == 0).all()  # DBSCAN is numpy on the driver
        assert ((r.ingest_s > 0) == ada).all()  # to_spark is timed for AdaWave alone


class TestOptions:
    def test_parameter_lists(self):
        # a tuning value with one value in use is a module constant, not a
        # parameter: what is left is data, sizes and the choices callers make
        want = {
            dipmeans: ["X"],
            skinnydip: ["X"],
            unidip: ["x", "is_modal", "_depth"],
            stsc: ["X", "k"],
            ric: ["X"],
            kmeans_np: ["X", "k", "seed"],
            kmeans_spark: ["spark", "X", "k"],
            em_spark: ["spark", "X", "k"],
            dbscan: ["X", "eps", "min_pts"],
            dbscan_sweep: ["X", "labels_true", "eval_mask"],
            diptest: ["x", "sort"],
            dip_pvalue: ["d", "n", "n_boot"],
            dwt_dense: ["a"],
            dwt_spark: ["cells", "dens"],
            elbow_threshold: ["densities_desc", "d"],
            auto_scale: ["d", "n"],
            run_algo: ["spark", "algo", "X", "y", "k_true", "eval_mask", "assign_noise"],
            run_table1: ["spark", "datasets", "algorithms"],
            run_fig8: ["spark", "gammas", "algorithms", "n_per_cluster"],
            run_fig10: ["spark", "total_sizes", "algorithms"],
            run_table2: ["spark"],
            AdaWaveModel: [
                "spec", "threshold", "n_clusters", "n_grid_cells",
                "n_transformed_cells", "n_kept_cells", "densities_sorted", "labeled_cells",
            ],
        }
        got = {f: list(inspect.signature(f).parameters) for f in want}
        assert {f.__name__: p for f, p in got.items()} == {f.__name__: p for f, p in want.items()}


@pytest.fixture(scope="module")
def reproduce():
    """``jobs/reproduce.py`` as a module (``jobs/`` is scripts, not a package)."""
    spec = importlib.util.spec_from_file_location("reproduce", ROOT / "jobs" / "reproduce.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestReproduce:
    def test_table2_file(self, spark, reproduce, tmp_path):
        path = reproduce.write(spark, "table2", tmp_path)
        assert path == tmp_path / "table2.txt"
        head, *body = path.read_text().splitlines()
        assert head.startswith("# ")
        assert {"git_sha", "host", "spark", "master"} <= set(json.loads(head[2:]))
        assert body[0].split() == ["attribute", "correlation", "paper_correlation"]
        assert [line.split()[0] for line in body[1:]] == list(GLASS_ATTRS)

    def test_committed_results_carry_provenance(self, reproduce):
        for name in reproduce.ARTEFACTS:
            head = (ROOT / "results" / f"{name}.txt").read_text().partition("\n")[0]
            assert head.startswith("# "), name
            assert {"git_sha", "host", "spark", "master"} <= set(json.loads(head[2:])), name

    def test_experiments_has_no_placeholder(self):
        assert not re.findall(r"<!--.*?-->", (ROOT / "EXPERIMENTS.md").read_text(), re.S)

    @pytest.mark.parametrize("doc", ["README.md", "EXPERIMENTS.md", "DESIGN.md"])
    def test_documented_jobs_exist(self, doc):
        scripts = re.findall(r"python3? (jobs/\S+?\.py)", (ROOT / doc).read_text())
        assert [s for s in scripts if not (ROOT / s).is_file()] == []


class TestBenchmarkNames:
    """The benchmark finds the program by name; a rename must fail here, not
    only when the benchmark runs (its own tests are not collected with these)."""

    def test_traced_names_resolve(self, monkeypatch):
        path = ROOT / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
        spec.loader.exec_module(tracing)
        names = [(m, a) for table in (tracing.CHAINED, tracing.NESTED)
                 for m, attrs in table.items() for a in attrs]
        assert names
        for mod_name, attr in names:
            assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)

    def test_model_fields_the_benchmark_reads(self):
        fields = {f.name for f in dataclasses.fields(AdaWaveModel)}
        assert {"n_clusters", "n_grid_cells", "n_transformed_cells", "n_kept_cells"} <= fields
