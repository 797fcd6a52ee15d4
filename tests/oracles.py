"""Reference implementations the tests compare the program against.

- ``dwt_dense`` / ``_dwt_dense_1d``: the approximation-subband DWT on a
  dense density array, the oracle of the sparse ``dwt_spark``.
- ``kmeans_np_reference``: ``repro.baselines.api.kmeans_np`` as it was
  before it kept the squared norms across distance passes, which it must
  still equal bit for bit.
- ``assert_equivalent(result, sql, **tables)``: runs ``sql`` in DuckDB
  over ``tables`` and asserts the sorted rows match ``result``, the
  oracle of the quantization SQL.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.wavelet import _filter


def _dwt_dense_1d(a: np.ndarray, taps: tuple[float, ...], center: int, axis: int) -> np.ndarray:
    """Low-pass + downsample along one axis of a dense array (zero padding).

    Array index i is grid coordinate i, as on the sparse path: output index
    k - k_min holds transformed coordinate k.
    """
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    # reachable output coordinates: k = (i + center - m) / 2, parity-valid;
    # the smallest is ceil((center - (L-1)) / 2)
    k_min = -((len(taps) - 1 - center) // 2)
    k_max = (n - 1 + center) // 2
    out = np.zeros((k_max - k_min + 1,) + a.shape[1:], dtype=np.float64)
    for i in range(n):
        for m, h in enumerate(taps):
            num = i + center - m
            if num % 2 == 0:
                out[num // 2 - k_min] += h * a[i]
    return np.moveaxis(out, 0, axis)


def dwt_dense(a: np.ndarray) -> np.ndarray:
    """Reference d-dim approximation-subband DWT on a dense density array.

    Returns only the density values (the coordinate of index 0 is
    internal); tests compare value multisets against the sparse path.
    """
    out = np.asarray(a, dtype=np.float64)
    taps, center = _filter(out.ndim)
    for axis in range(out.ndim):
        out = _dwt_dense_1d(out, taps, center, axis)
    return out


def _pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    d = aa + bb - 2.0 * (A @ B.T)
    np.maximum(d, 0.0, out=d)
    return d


def _kmeanspp_init(X: np.ndarray, k: int, g: np.random.Generator) -> np.ndarray:
    n = len(X)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[g.integers(n)]
    d2 = _pairwise_sq_dists(X, centers[:1]).ravel()
    for i in range(1, k):
        p = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[i] = X[g.choice(n, p=p)]
        d2 = np.minimum(d2, _pairwise_sq_dists(X, centers[i : i + 1]).ravel())
    return centers


def kmeans_np_reference(X: np.ndarray, k: int, *, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means with k-means++ init, 4 restarts of at most 100
    iterations, every distance pass recomputing the squared norms."""
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    k = min(k, n)
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for r in range(4):
        g = np.random.default_rng(seed + 1000 * r)
        centers = _kmeanspp_init(X, k, g)
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(100):
            d2 = _pairwise_sq_dists(X, centers)
            new_labels = d2.argmin(axis=1)
            if (new_labels == labels).all() and _ > 0:
                break
            labels = new_labels
            for j in range(k):
                pts = X[labels == j]
                if len(pts):
                    centers[j] = pts.mean(axis=0)
                else:  # re-seed empty cluster at the farthest point
                    centers[j] = X[d2.min(axis=1).argmax()]
        inertia = float(_pairwise_sq_dists(X, centers).min(axis=1).sum())
        if best is None or inertia < best[0]:
            best = (inertia, labels.copy(), centers.copy())
    assert best is not None
    return best[1], best[2]


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(result: DataFrame | pd.DataFrame, sql: str, **tables) -> None:
    """Run ``sql`` in DuckDB over ``tables``; assert its sorted rows match ``result``.

    This catches wrong results from a rewritten plan or a custom operator —
    "it ran" is not "it is correct". ``result`` and ``tables`` may be Spark
    or pandas DataFrames; Spark ones are collected via ``.toPandas()``.
    Alias every output column identically on both sides (Spark names
    ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``) and project to
    scalar columns — array/map/struct columns are not orderable so cannot
    be compared here.
    """
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = result.toPandas() if isinstance(result, DataFrame) else result
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )
