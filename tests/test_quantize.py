"""Unit tests for grid quantization — including the DuckDB oracle check
that the collected sparse grid is semantically a plain GROUP BY."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.quantize import GridSpec, assign_cells, cell_cols, fit_grid, grid_densities
from repro.datasets import uci_like
from repro.datasets.synthetic import to_spark
from tests.oracles import assert_equivalent


@pytest.fixture(scope="module")
def points_df(spark):
    g = np.random.default_rng(0)
    X = g.random((500, 2))
    return to_spark(spark, X)


class TestGridSpec:
    def test_width(self):
        spec = GridSpec(("x",), (0.0,), (10.0,), 5)
        assert spec.width(0) == 2.0

    def test_constant_dimension_width_nonzero(self):
        spec = GridSpec(("x",), (3.0,), (3.0,), 4)
        assert spec.width(0) > 0

    def test_d(self):
        spec = GridSpec(("a", "b", "c"), (0,) * 3, (1,) * 3, 8)
        assert spec.d == 3


class TestFitGrid:
    def test_bounds_match_data(self, spark, points_df):
        spec = fit_grid(points_df, ["x0", "x1"], 8)
        pdf = points_df.toPandas()
        assert spec.mins[0] == pytest.approx(pdf.x0.min())
        assert spec.maxs[1] == pytest.approx(pdf.x1.max())
        assert spec.n_rows == len(pdf)

    def test_auto_scale_from_row_count(self, points_df):
        # 2-D, 500 rows: sqrt(500) rounded up to a power of two
        assert fit_grid(points_df, ["x0", "x1"], None).scale == 32

    def test_bad_scale_raises(self, points_df):
        with pytest.raises(ValueError, match="scale"):
            fit_grid(points_df, ["x0"], 1)

    def test_no_features_raises(self, points_df):
        with pytest.raises(ValueError, match="feature"):
            fit_grid(points_df, [], 8)


class TestAssignCells:
    def test_cell_cols(self):
        assert cell_cols(3) == ["c0", "c1", "c2"]

    def test_cells_in_range(self, spark, points_df):
        spec = fit_grid(points_df, ["x0", "x1"], 16)
        out = assign_cells(points_df, spec).toPandas()
        for c in ("c0", "c1"):
            assert out[c].min() >= 0
            assert out[c].max() <= 15

    def test_max_value_clamped_into_last_cell(self, spark):
        pdf = pd.DataFrame({"id": [0, 1, 2], "x0": [0.0, 0.5, 1.0]})
        df = spark.createDataFrame(pdf)
        spec = fit_grid(df, ["x0"], 4)
        out = assign_cells(df, spec).toPandas().sort_values("id")
        assert out.c0.tolist() == [0, 2, 3]

    def test_known_assignment(self, spark):
        pdf = pd.DataFrame({"id": range(4), "x0": [0.0, 0.26, 0.51, 0.76]})
        df = spark.createDataFrame(pdf)
        spec = GridSpec(("x0",), (0.0,), (1.0,), 4)
        out = assign_cells(df, spec).toPandas().sort_values("id")
        assert out.c0.tolist() == [0, 1, 2, 3]


def _numpy_cells(x: np.ndarray, spec: GridSpec) -> np.ndarray:
    """``assign_cells``' formula in float64 numpy: NaN for a null cell.

    Spark casts the floor to long as Java does: NaN becomes 0 and +inf
    the largest long, which the clamp then takes to the last cell."""
    lo, hi, w = spec.mins[0], spec.maxs[0], spec.width(0)
    with np.errstate(all="ignore"):
        q = np.floor((x - lo) / w)
    cell = np.where(np.isnan(q), 0.0, np.minimum(q, spec.scale - 1))
    return np.where((x >= lo) & (x <= hi), cell, np.nan)


def _near(*xs: float) -> list[float]:
    """Each value and its neighbouring doubles."""
    return [y for x in xs for y in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]


_TINY = 5e-324  # the smallest subnormal
_ULP1 = float(np.nextafter(1.0, 2.0))  # the double after 1.0
_LITERAL_CASES = {
    # name: (min, max, scale, values)
    "subnormal_bound": (3 * _TINY, 1.0, 7, _near(3 * _TINY, 1 / 7, 3 / 7, 1.0) + [0.0, 2 * _TINY, 1e-310]),
    "negative_zero": (-0.0, 0.3, 3, _near(-0.0, 0.1, 0.2, 0.3) + [-_TINY]),
    "one_ulp_span": (1.0, _ULP1, 4, _near(1.0, _ULP1)),
    "span_overflows": (-1.5e308, 1.7e308, 8, _near(-1.5e308, -1e308, 0.0, 1e308, 1.7e308)),
    "subnormal_span": (0.0, _TINY, 16, _near(0.0, _TINY)),  # span / scale rounds to 0.0
}


def _collect(df, features, scale):
    """The collected grid of ``df`` at ``scale``: (cells, densities)."""
    spec = fit_grid(df, features, scale)
    return grid_densities(assign_cells(df, spec), spec.d)


def _assert_matches_duckdb(pts, scale):
    """The collected grid of ``pts`` (features x0, x1) is exactly DuckDB's
    GROUP BY over the same cell expression; returns the spec."""
    spec = fit_grid(pts, ["x0", "x1"], scale)
    cells, dens = grid_densities(assign_cells(pts, spec), 2)
    c0, c1 = (
        f"LEAST(GREATEST(CAST(FLOOR((x{j} - {spec.mins[j]}) / {spec.width(j)}) AS BIGINT), 0), "
        f"{scale - 1}) AS c{j}"
        for j in (0, 1)
    )
    sql = f"SELECT {c0}, {c1}, CAST(COUNT(*) AS DOUBLE) AS density FROM pts GROUP BY 1, 2"
    got = pd.DataFrame(cells, columns=["c0", "c1"]).assign(density=dens)
    assert_equivalent(got, sql, pts=pts)
    return spec


class TestSqlLiterals:
    @pytest.mark.parametrize("case", list(_LITERAL_CASES))
    def test_cells_match_numpy(self, spark, case):
        # every bound and width reaches Spark as the exact double: a cell
        # edge one ulp off would move the rows placed next to it
        lo, hi, scale, values = _LITERAL_CASES[case]
        spec = GridSpec(("x0",), (lo,), (hi,), scale)
        x = np.array(values + [np.nan, np.inf, -np.inf])
        df = spark.createDataFrame(pd.DataFrame({"id": np.arange(len(x)), "x0": x}))
        got = assign_cells(df, spec).toPandas().sort_values("id")["c0"].to_numpy(dtype=np.float64)
        want = _numpy_cells(x, spec)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isfinite(want).sum() >= 3
        if case == "span_overflows":  # width inf: every row in range is in cell 0
            assert spec.width(0) == np.inf and set(want[np.isfinite(want)]) == {0.0}


class TestGridDensities:
    def test_total_mass_is_row_count(self, spark, points_df):
        _, dens = _collect(points_df, ["x0", "x1"], 8)
        assert dens.sum() == points_df.count()

    def test_sparse_only_nonzero(self, spark, points_df):
        cells, dens = _collect(points_df, ["x0", "x1"], 64)
        assert cells.shape == (len(dens), 2) and cells.dtype == np.int64
        assert (dens > 0).all()
        assert len(np.unique(cells, axis=0)) == len(cells) <= points_df.count()

    def test_oracle_groupby_equivalence(self, spark, points_df):
        """The collected grid is exactly a SQL GROUP BY: check with DuckDB."""
        _assert_matches_duckdb(points_df, 8)

    def test_oracle_on_unequal_feature_ranges(self, spark):
        """Quantize the HTRU2 stand-in on two features with unequal spans
        (~16 vs ~43) and negative minima; oracle-check."""
        X, _ = uci_like.make("htru2")
        spec = _assert_matches_duckdb(to_spark(spark, X[:, [0, 3]]), 8)
        assert spec.width(1) > 2 * spec.width(0)

    def test_order_insensitive(self, spark, points_df):
        """Paper property: grid content independent of input row order."""
        spec = fit_grid(points_df, ["x0", "x1"], 8)
        c1, d1 = grid_densities(assign_cells(points_df, spec), 2)
        c2, d2 = grid_densities(assign_cells(points_df.orderBy(F.rand(seed=42)), spec), 2)
        assert np.array_equal(c1, c2) and np.array_equal(d1, d2)

    def test_deterministic(self, spark, points_df):
        # bit-identical, lexicographically sorted output however Spark
        # partitioned the data it collected
        spec = fit_grid(points_df, ["x0", "x1"], 16)
        c1, d1 = grid_densities(assign_cells(points_df.repartition(1), spec), 2)
        c2, d2 = grid_densities(assign_cells(points_df.repartition(7), spec), 2)
        assert np.array_equal(c1, c2) and np.array_equal(d1, d2)
        assert np.array_equal(np.lexsort(c1.T[::-1]), np.arange(len(c1)))

    @pytest.mark.parametrize("half", [True, False], ids=["auto_half", "auto"])
    def test_one_bit_coarsening_is_the_half_scale_grid(self, spark, half):
        # adawave's d > 4 scale search builds the grids at auto/2 and auto
        # from the one at 2·auto; that is exact, the last-cell clamp
        # included. Lattice rows set the bounds (negative minima) and sit
        # on or next to cell edges, where a rounding slip would show.
        step = np.linspace(0.3, 3.1, 6)
        g = np.random.default_rng(7)
        X = np.vstack([g.integers(0, 33, (2000, 6)), g.uniform(0, 32, (1000, 6))]) * step - 5.0
        df = to_spark(spark, X)
        spec = fit_grid(df, [f"x{j}" for j in range(6)], None)
        s = spec.scale // 2 if half else spec.scale
        cells, dens = grid_densities(assign_cells(df, replace(spec, scale=s)), 6)
        fine, fine_dens = grid_densities(assign_cells(df, replace(spec, scale=2 * s)), 6)
        coarse, inv = np.unique(fine >> 1, axis=0, return_inverse=True)
        assert min(spec.mins) < 0 and (cells == s - 1).any(axis=0).all()
        assert np.array_equal(coarse, cells)
        assert np.array_equal(np.bincount(inv.ravel(), weights=fine_dens), dens)
