"""Unit tests for grid quantization — including the DuckDB oracle check
that the sparse-grid aggregation is semantically a plain GROUP BY."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.quantize import GridSpec, assign_cells, fit_grid, grid_densities, quantize
from repro.datasets import uci_like
from repro.datasets.synthetic import to_spark
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def points_df(spark):
    g = np.random.default_rng(0)
    X = g.random((500, 2))
    return to_spark(spark, X).cache()


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


class TestGridDensities:
    def test_total_mass_is_row_count(self, spark, points_df):
        _, grid, _ = quantize(points_df, ["x0", "x1"], 8)
        assert grid.agg(F.sum("density")).first()[0] == points_df.count()

    def test_sparse_only_nonzero(self, spark, points_df):
        _, grid, _ = quantize(points_df, ["x0", "x1"], 64)
        pdf = grid.toPandas()
        assert (pdf.density > 0).all()
        assert len(pdf) <= points_df.count()

    def test_oracle_groupby_equivalence(self, spark, points_df):
        """The sparse grid is exactly a SQL GROUP BY: check with DuckDB."""
        cells, grid, spec = quantize(points_df, ["x0", "x1"], 8)
        w0, w1 = spec.width(0), spec.width(1)
        sql = f"""
            SELECT
              LEAST(GREATEST(CAST(FLOOR((x0 - {spec.mins[0]}) / {w0}) AS BIGINT), 0), 7) AS c0,
              LEAST(GREATEST(CAST(FLOOR((x1 - {spec.mins[1]}) / {w1}) AS BIGINT), 0), 7) AS c1,
              CAST(COUNT(*) AS DOUBLE) AS density
            FROM pts GROUP BY 1, 2
        """
        assert_equivalent(grid, sql, pts=points_df)

    def test_oracle_on_unequal_feature_ranges(self, spark):
        """Quantize the HTRU2 stand-in on two features with unequal spans
        (~16 vs ~43) and negative minima; oracle-check."""
        X, _ = uci_like.make("htru2")
        pts = to_spark(spark, X[:, [0, 3]])
        cells, grid, spec = quantize(pts, ["x0", "x1"], 8)
        w0, w1 = spec.width(0), spec.width(1)
        assert w1 > 2 * w0
        sql = f"""
            SELECT
              LEAST(GREATEST(CAST(FLOOR((x0 - {spec.mins[0]}) / {w0}) AS BIGINT), 0), 7) AS c0,
              LEAST(GREATEST(CAST(FLOOR((x1 - {spec.mins[1]}) / {w1}) AS BIGINT), 0), 7) AS c1,
              CAST(COUNT(*) AS DOUBLE) AS density
            FROM pts GROUP BY 1, 2
        """
        assert_equivalent(grid, sql, pts=pts)

    def test_order_insensitive(self, spark, points_df):
        """Paper property: grid content independent of input row order."""
        _, grid1, spec = quantize(points_df, ["x0", "x1"], 8)
        shuffled = points_df.orderBy(F.rand(seed=42))
        cells2 = assign_cells(shuffled, spec)
        grid2 = grid_densities(cells2, 2)
        p1 = grid1.toPandas().sort_values(["c0", "c1"]).reset_index(drop=True)
        p2 = grid2.toPandas().sort_values(["c0", "c1"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(p1, p2)

    def test_deterministic(self, spark, points_df):
        _, g1, _ = quantize(points_df, ["x0", "x1"], 16)
        _, g2, _ = quantize(points_df, ["x0", "x1"], 16)
        p1 = g1.toPandas().sort_values(["c0", "c1"]).reset_index(drop=True)
        p2 = g2.toPandas().sort_values(["c0", "c1"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(p1, p2)
