"""Unit tests for the from-scratch Hartigan dip test."""
from __future__ import annotations

import logging
import shutil
import threading
from functools import cache, lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.stats.dip as dipmod
from repro.stats.dip import _dip_full, dip, dip_pvalue, diptest


def _sample(kind: str, n: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed)
    if kind == "uniform":
        return g.random(n)
    if kind == "normal":
        return g.normal(0.0, 1.0, n)
    if kind == "bimodal":
        return np.concatenate([g.normal(-2.0, 0.5, n // 2), g.normal(2.0, 0.5, n - n // 2)])
    if kind == "equal":
        return np.full(n, g.normal())
    return g.integers(0, 6, n).astype(np.float64)  # "ties"


# (kind, n, dip, low, high) of _sample(kind, n, seed=n), as computed by the
# numpy-scalar port of AS 217 this kernel replaced; floats written with repr
_PINNED = [
    ("uniform", 4, 0.12517933701985356, 2, 3),
    ("normal", 4, 0.125, 0, 1),
    ("bimodal", 4, 0.2244731860314713, 0, 1),
    ("ties", 4, 0.125, 2, 3),
    ("uniform", 5, 0.11570552916093886, 3, 4),
    ("normal", 5, 0.1, 0, 1),
    ("bimodal", 5, 0.18848770997007597, 2, 4),
    ("ties", 5, 0.1, 2, 4),
    ("uniform", 50, 0.032883430245589734, 14, 26),
    ("normal", 50, 0.04744349896524538, 11, 28),
    ("bimodal", 50, 0.1558162369153914, 25, 46),
    ("ties", 50, 0.09, 21, 32),
    ("uniform", 440, 0.017290986511813253, 1, 204),
    ("normal", 440, 0.010328372014087699, 190, 219),
    ("bimodal", 440, 0.12739603467874056, 242, 433),
    ("ties", 440, 0.08977272727272727, 0, 79),
    ("uniform", 1000, 0.00933181234343155, 117, 228),
    ("normal", 1000, 0.008522396548354927, 490, 589),
    ("bimodal", 1000, 0.12871830724287023, 529, 952),
    ("ties", 1000, 0.0885, 323, 500),
]


# dip_pvalue(c / sqrt(n), n, n_boot=...) for c in _P_SCALES, as computed
# when each call chose its reference size afresh; floats written with repr.
# Sizes 4..100 use the n = 50 table, 101..447 the 200 one, 448..2000 the
# 1000 one and 2001.. the 4000 one.
_P_SCALES = (0.3, 0.45, 0.6, 1.0)
_P_PINNED = {
    (500, 4): (0.724, 0.13, 0.006, 0.0),
    (500, 99): (0.724, 0.13, 0.006, 0.0),
    (500, 100): (0.724, 0.13, 0.006, 0.0),
    (500, 101): (0.802, 0.178, 0.002, 0.0),
    (500, 447): (0.802, 0.178, 0.002, 0.0),
    (500, 448): (0.846, 0.184, 0.01, 0.0),
    (500, 1999): (0.846, 0.184, 0.01, 0.0),
    (500, 2000): (0.846, 0.184, 0.01, 0.0),
    (1000, 4): (0.732, 0.117, 0.003, 0.0),
    (1000, 99): (0.732, 0.117, 0.003, 0.0),
    (1000, 100): (0.732, 0.117, 0.003, 0.0),
    (1000, 101): (0.795, 0.161, 0.003, 0.0),
    (1000, 447): (0.795, 0.161, 0.003, 0.0),
    (1000, 448): (0.85, 0.169, 0.012, 0.0),
    (1000, 1999): (0.85, 0.169, 0.012, 0.0),
    (1000, 2000): (0.85, 0.169, 0.012, 0.0),
}
# the same for sizes that use the 4000-point table, with _boot_table
# replaced by _stub_table: the real tables take ~7 s to build
_P_PINNED_STUB = {
    (500, 2001): (0.764, 0.638, 0.54, 0.198),
    (500, 5000): (0.764, 0.638, 0.54, 0.198),
    (1000, 2001): (0.752, 0.621, 0.491, 0.153),
    (1000, 5000): (0.752, 0.621, 0.491, 0.153),
}


def _stub_table(n: int, n_boot: int) -> np.ndarray:
    g = np.random.default_rng(dipmod._BOOT_SEED + n + n_boot)
    return np.sort(g.random(n_boot)) * (1.2 / np.sqrt(n))


class TestDipStatistic:
    def test_bounds(self):
        g = np.random.default_rng(0)
        for n in (4, 10, 50, 500):
            x = g.random(n)
            d = dip(x)
            assert 1.0 / (2 * n) - 1e-12 <= d <= 0.25 + 1e-12

    def test_degenerate_constant(self):
        assert dip(np.ones(10)) == pytest.approx(1.0 / 20)

    def test_tiny_samples(self):
        assert dip(np.array([1.0])) == 0.0
        assert dip(np.array([1.0, 2.0])) == pytest.approx(0.25)
        assert dip(np.array([1.0, 2.0, 3.0])) == pytest.approx(1.0 / 6)

    def test_shift_scale_invariance(self):
        g = np.random.default_rng(1)
        x = g.normal(0, 1, 300)
        assert dip(x) == pytest.approx(dip(4.2 * x - 17.0), abs=1e-12)

    def test_sorted_flag_consistency(self):
        g = np.random.default_rng(2)
        x = g.random(200)
        assert dip(np.sort(x), sort=False) == pytest.approx(dip(x))

    def test_bimodal_much_larger_than_unimodal(self):
        g = np.random.default_rng(3)
        uni = g.normal(0, 1, 400)
        bi = np.concatenate([g.normal(-4, 0.3, 200), g.normal(4, 0.3, 200)])
        assert dip(bi) > 5 * dip(uni)

    def test_two_point_masses_approach_quarter(self):
        x = np.concatenate([np.full(500, 0.0), np.full(500, 1.0)])
        # jitter to avoid exact ties dominating
        g = np.random.default_rng(4)
        x = x + g.normal(0, 1e-6, x.size)
        assert dip(x) == pytest.approx(0.25, abs=0.01)

    def test_separation_monotonicity(self):
        g = np.random.default_rng(5)
        base = g.normal(0, 1, 300)
        dips = []
        for sep in (0.0, 2.0, 4.0, 8.0):
            x = np.concatenate([base, g.normal(sep, 1, 300)])
            dips.append(dip(x))
        assert dips[-1] > dips[0]
        assert dips[-1] > 0.1

    @given(st.integers(4, 200), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_bounds_property(self, n, seed):
        g = np.random.default_rng(seed)
        d = dip(g.random(n))
        assert 1.0 / (2 * n) - 1e-12 <= d <= 0.25 + 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_duplicate_values_no_crash(self, seed):
        g = np.random.default_rng(seed)
        x = g.integers(0, 5, 100).astype(float)  # heavy ties
        d = dip(x)
        assert 0.0 <= d <= 0.25 + 1e-12

    @pytest.mark.parametrize("presorted", [False, True], ids=["unsorted", "sorted"])
    @pytest.mark.parametrize("kind,n,d,lo,hi", _PINNED, ids=[f"{k}-{n}" for k, n, *_ in _PINNED])
    def test_pinned_exact(self, kind, n, d, lo, hi, presorted):
        x = _sample(kind, n, n)
        got = _dip_full(np.sort(x), sort=False) if presorted else _dip_full(x)
        assert got == (d, lo, hi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_raises(self, bad):
        x = np.array([0.1, 0.5, bad, 0.9, 0.3, 0.2])
        with pytest.raises(ValueError, match="infinite"):
            dip(x)
        with pytest.raises(ValueError, match="infinite"):
            diptest(x)


def _matrix(kind: str, rows: int, n: int, seed: int) -> np.ndarray:
    return np.array([_sample(kind, n, seed + i) for i in range(rows)]).reshape(rows, n)


class TestDipRows:
    """``dip`` of a 2-D array is ``dip`` of each row, with the C kernel and
    without it."""

    @given(
        st.sampled_from(["uniform", "normal", "bimodal", "ties", "equal"]),
        st.integers(0, 6),
        st.one_of(st.integers(1, 8), st.integers(9, 600)),
        st.integers(0, 10**6),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_row_calls(self, kind, rows, n, seed, presorted, reference):
        M = _matrix(kind, rows, n, seed)
        if presorted:
            M = np.sort(M, axis=1)
        with mock.patch.object(dipmod, "_kernel", (lambda: None) if reference else dipmod._kernel):
            got = dip(M, sort=not presorted)
            want = [dip(r, sort=not presorted) for r in M]
        assert got.dtype == np.float64 and got.shape == (rows,)
        assert list(map(repr, got.tolist())) == list(map(repr, want))
        assert want == [_dip_full(r, sort=not presorted)[0] for r in M]

    @given(
        st.sampled_from(["uniform", "normal", "bimodal", "ties", "equal"]),
        st.integers(0, 6),
        st.one_of(st.integers(1, 8), st.integers(9, 600)),
        st.integers(0, 10**6),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_modal_intervals_equal_reference(self, kind, rows, n, seed, presorted, reference):
        M = _matrix(kind, rows, n, seed)
        if presorted:
            M = np.sort(M, axis=1)
        with mock.patch.object(dipmod, "_kernel", (lambda: None) if reference else dipmod._kernel):
            dips, bounds = dipmod._dips(M, not presorted)
        assert dips.shape == (rows,) and bounds.dtype == np.int64 and bounds.shape == (rows, 2)
        assert _triples(dips, bounds) == [_dip_full(r, sort=not presorted) for r in M]

    def test_kernel_runs_once_per_matrix(self, monkeypatch):
        # one call of the C entry per matrix; a 1-D sample is a one-row matrix
        kernel = _built_kernel()
        calls, real = [], kernel.dip_rows

        def spy(x, rows, n, *out):
            calls.append((rows, n))
            return real(x, rows, n, *out)

        monkeypatch.setattr(kernel, "dip_rows", spy)
        dip(_matrix("bimodal", 5, 40, 0))
        dip(_sample("bimodal", 40, 0))
        assert calls == [(5, 40), (1, 40)]

    @pytest.mark.parametrize("sort", [False, True], ids=["presorted", "sort"])
    def test_any_memory_layout(self, sort):
        # the kernel reads the matrix row after row: any other layout is copied first
        M = np.sort(_matrix("bimodal", 4, 80, 0), axis=1)
        want = [_dip_full(r, sort=False)[0] for r in M[:, ::2]]
        for view in (M[:, ::2], np.asfortranarray(M)[:, ::2], np.asfortranarray(M[:, ::2])):
            assert dip(view, sort=sort).tolist() == want

    @pytest.mark.parametrize("reference", [False, True], ids=["kernel", "reference"])
    def test_non_finite_row_raises(self, reference, monkeypatch):
        if reference:
            monkeypatch.setattr(dipmod, "_kernel", lambda: None)
        M = _matrix("uniform", 3, 10, 0)
        M[1, 4] = np.nan
        with pytest.raises(ValueError, match="infinite"):
            dip(M)

    def test_empty_rows_raise(self):
        with pytest.raises(ValueError, match="empty"):
            dip(np.zeros((2, 0)))


class TestDipPValue:
    def test_uniform_high_p(self):
        g = np.random.default_rng(6)
        ps = [diptest(g.random(300))[1] for _ in range(5)]
        assert float(np.median(ps)) > 0.1

    def test_bimodal_low_p(self):
        g = np.random.default_rng(7)
        x = np.concatenate([g.normal(-4, 0.3, 150), g.normal(4, 0.3, 150)])
        _, p, _ = diptest(x)
        assert p < 0.01

    def test_gaussian_not_significant(self):
        g = np.random.default_rng(8)
        _, p, _ = diptest(g.normal(0, 1, 500))
        assert p > 0.2

    def test_pvalue_in_unit_interval(self):
        for d in (0.0, 0.01, 0.05, 0.2, 0.5):
            p = dip_pvalue(d, 100, n_boot=200)
            assert 0.0 <= p <= 1.0

    def test_pvalue_monotone_in_dip(self):
        ps = [dip_pvalue(d, 200, n_boot=200) for d in (0.005, 0.02, 0.05, 0.1)]
        assert ps == sorted(ps, reverse=True)

    def test_tiny_sample_p_is_one(self):
        assert dip_pvalue(0.2, 3) == 1.0

    @pytest.mark.parametrize("n", [1, 3, 4, 50, 99, 101, 448, 1000])
    def test_array_equals_scalar_calls(self, n):
        # DipMeans scores a cluster's viewers in one call
        d = np.array([0.0, 0.3, 0.45, 0.6, 1.0, 5.0]) / np.sqrt(n)
        got = dip_pvalue(d, n, n_boot=500)
        assert got.dtype == np.float64 and got.shape == d.shape
        assert list(map(repr, got.tolist())) == [repr(dip_pvalue(x, n, n_boot=500)) for x in d]
        assert dip_pvalue(d[:0], n, n_boot=500).shape == (0,)

    @pytest.mark.parametrize("n_boot,n", list(_P_PINNED))
    def test_pinned_exact(self, n_boot, n):
        got = tuple(dip_pvalue(c / np.sqrt(n), n, n_boot=n_boot) for c in _P_SCALES)
        assert list(map(repr, got)) == list(map(repr, _P_PINNED[n_boot, n]))

    @pytest.mark.parametrize("n_boot,n", list(_P_PINNED_STUB))
    def test_pinned_exact_reference_size(self, n_boot, n, monkeypatch):
        monkeypatch.setattr(dipmod, "_boot_table", _stub_table)
        got = tuple(dip_pvalue(c / np.sqrt(n), n, n_boot=n_boot) for c in _P_SCALES)
        assert list(map(repr, got)) == list(map(repr, _P_PINNED_STUB[n_boot, n]))


class TestModalInterval:
    def test_modal_interval_valid_indices(self):
        g = np.random.default_rng(9)
        x = np.sort(g.random(100))
        _, _, (lo, hi) = diptest(x, sort=False)
        assert 0 <= lo <= hi <= 99

    def test_modal_interval_covers_a_mode_of_bimodal(self):
        g = np.random.default_rng(10)
        x = np.sort(
            np.concatenate([g.normal(-5, 0.2, 200), g.normal(5, 0.2, 200)])
        )
        _, _, (lo, hi) = diptest(x, sort=False)
        # the interval should sit inside one of the two modes
        vals = x[[lo, hi]]
        assert (vals < 0).all() or (vals > 0).all()


def _triples(dips: np.ndarray, bounds: np.ndarray) -> list[tuple[float, int, int]]:
    return [*zip(dips.tolist(), *bounds.T.tolist())]


def _built_kernel():
    """The C kernel; where there is a compiler, it must have been built,
    loaded and trusted."""
    if not any(map(shutil.which, dipmod._CC)):
        pytest.skip("no C compiler here: only the Python reference runs")
    kernel = dipmod._kernel()
    assert kernel is not None
    return kernel


def _kernel_dips(rows: np.ndarray) -> list[tuple[float, int, int]]:
    """``(dip, lo, hi)`` of each sorted row of a matrix, every one from the
    C entry: a row left to ``_dip_full`` fails."""
    _built_kernel()
    with mock.patch.object(dipmod, "_dip_full", side_effect=AssertionError("left to _dip_full")):
        return _triples(*dipmod._dips(rows, False))


class TestCompiledKernel:
    @given(
        st.sampled_from(["uniform", "normal", "bimodal", "ties", "equal"]),
        st.one_of(st.integers(1, 8), st.integers(9, 3000)),
        st.integers(0, 10**6),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, kind, n, seed, presorted):
        x = _sample(kind, n, seed)
        if presorted:
            x = np.sort(x)
        want = _dip_full(x, sort=not presorted)
        assert _kernel_dips(np.sort(x, kind="mergesort")[None]) == [want]
        assert diptest(x, sort=not presorted)[::2] == (want[0], want[1:])

    @pytest.mark.parametrize("kind,n,d,lo,hi", _PINNED, ids=[f"{k}-{n}" for k, n, *_ in _PINNED])
    def test_pinned_exact(self, kind, n, d, lo, hi):
        assert _kernel_dips(np.sort(_sample(kind, n, n))[None]) == [(d, lo, hi)]

    def test_concurrent_first_builds(self, tmp_path, monkeypatch):
        # each thread compiles under a private name; one library is left, and
        # the build of an earlier source is deleted
        if not any(map(shutil.which, dipmod._CC)):
            pytest.skip("no C compiler here")
        monkeypatch.setattr(dipmod, "_CACHE", tmp_path)
        stale = tmp_path / "_dip-0000000000000000.so"
        stale.write_bytes(b"")
        paths, errors = [], []

        def build():
            try:
                paths.append(dipmod._build())
            except Exception as e:  # reported by the assertion below
                errors.append(e)

        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(set(paths)) == 1 and sorted(tmp_path.iterdir()) == [paths[0]]
        assert not stale.exists()


def _no_compiler(tmp_path, monkeypatch):
    monkeypatch.setattr(dipmod, "_CACHE", tmp_path)
    monkeypatch.setattr(shutil, "which", lambda name: None)


def _build_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(dipmod, "_CACHE", tmp_path)
    monkeypatch.setattr(dipmod, "_CFLAGS", (*dipmod._CFLAGS, "-fno-such-flag"))


def _load_fails(tmp_path, monkeypatch):
    (tmp_path / "bad.so").write_bytes(b"not a shared library")
    monkeypatch.setattr(dipmod, "_build", lambda: tmp_path / "bad.so")


def _kernel_differs(tmp_path, monkeypatch):
    # a kernel one ulp off the reference fails the probe
    src = dipmod._SRC.read_text().replace(
        "*dip = dip_value;", "*dip = dip_value * (1.0 + 0x1p-52);"
    )
    assert "0x1p-52" in src
    (tmp_path / "_dip.c").write_text(src)
    monkeypatch.setattr(dipmod, "_SRC", tmp_path / "_dip.c")
    monkeypatch.setattr(dipmod, "_CACHE", tmp_path)


class TestReferenceFallback:
    @pytest.mark.parametrize(
        "fail,reason",
        [
            (_no_compiler, "no C compiler on PATH"),
            (_build_fails, "CalledProcessError"),
            (_load_fails, "bad.so"),
            (_kernel_differs, "differs from _dip_full"),
        ],
        ids=["no-compiler", "build-fails", "load-fails", "kernel-differs"],
    )
    def test_same_values(self, fail, reason, tmp_path, monkeypatch, caplog):
        kind, n, d, lo, hi = _PINNED[14]
        x = _sample(kind, n, n)
        want = diptest(x)
        assert (want[0], want[2]) == (d, (lo, hi))
        # a fresh kernel and fresh null tables, so both run after the failure
        monkeypatch.setattr(dipmod, "_kernel", cache(dipmod._kernel.__wrapped__))
        monkeypatch.setattr(
            dipmod, "_boot_table", lru_cache(maxsize=16)(dipmod._boot_table.__wrapped__)
        )
        fail(tmp_path, monkeypatch)
        caplog.set_level(logging.WARNING, logger=dipmod.__name__)
        assert dipmod._kernel() is None
        assert dip(x) == d
        assert dip(np.stack([x, x])).tolist() == [d, d]
        assert diptest(x) == want
        got = tuple(dip_pvalue(c / np.sqrt(99), 99, n_boot=500) for c in _P_SCALES)
        assert list(map(repr, got)) == list(map(repr, _P_PINNED[500, 99]))
        # the slow path says once why it runs
        [record] = [r for r in caplog.records if r.name == dipmod.__name__]
        assert record.levelno == logging.WARNING and reason in record.getMessage()
