"""AdaWave: adaptive wavelet clustering (the paper's core contribution).

Pipeline (paper Algorithm 1). The N objects are read three times by
Spark; everything in between works on the M ≪ N grid cells on the driver:

1. quantize the feature space into a sparse grid  (`core.quantize`, Spark:
   one bounds + row-count aggregate, then one ``groupBy`` over the cells)
2. low-pass DWT of the sparse grid                (`core.wavelet`: the grid
   is collected once, the transform runs in numpy)
3. drop near-zero coefficients, then adaptively threshold the sorted
   density curve ("elbow theory")                 (`core.threshold`)
4. connected components over surviving cells      (`core.components`)
5. lookup table: transformed cell -> label, original cell -> transformed
   cell is ``c >> levels``; labels join back onto the objects through a
   broadcast hash join                            (Spark)

Defaults are auto-derived from the dimensionality (the paper's notion of
"parameter-free": `scale=128` for the 2-D experiments; coarser grids and a
fanout-1 wavelet for higher d, because an L-tap filter multiplies the
sparse-cell count by up to ceil(L/2) per dimension pass).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.components import connected_components
from repro.core.quantize import GridSpec, assign_cells, auto_params, fit_grid, grid_densities
from repro.core.threshold import angle_threshold, elbow_threshold
from repro.core.wavelet import cell_cols, dwt_spark, get_wavelet

__all__ = ["AdaWaveModel", "adawave", "auto_params"]

_EPS_COEF = 1e-9  # "wavelet coefficients close to zero" cutoff (paper step 2)


@dataclass
class AdaWaveModel:
    """Everything AdaWave derived from the data, for inspection/tests."""

    spec: GridSpec
    scale: int
    levels: int
    wavelet: str
    threshold: float
    n_clusters: int
    n_grid_cells: int
    n_transformed_cells: int
    n_kept_cells: int
    densities_sorted: np.ndarray = field(repr=False)
    labeled_cells: DataFrame = field(repr=False)  # transformed c0..c{d-1}, cluster


def adawave(
    df: DataFrame,
    features: list[str],
    *,
    scale: int | None = None,
    levels: int | None = None,
    wavelet: str | None = None,
    threshold_method: str = "elbow",
    elbow_stage: int | None = None,
    adjacency: str = "auto",
    min_component_frac: float = 0.02,
    keep_model: bool = False,
) -> DataFrame | tuple[DataFrame, AdaWaveModel]:
    """Cluster ``df`` on ``features``; returns ``df`` + ``cluster`` column.

    Noise objects get cluster ``-1``; clusters are labeled ``0..k-1`` in
    first-appearance order of their cells in the lexicographically sorted
    grid collection (deterministic). Components carrying less than
    ``min_component_frac`` of the surviving density mass are folded back
    into noise — the grid-level analogue of the paper's "further eliminate the
    noise grids" (randomness in dense noise always leaves a few isolated
    above-threshold cells; the paper reports exactly 5+noise clusters, so
    its implementation necessarily prunes these too). With
    ``keep_model=True`` also returns the fitted :class:`AdaWaveModel`.
    """
    d = len(features)
    _, a_levels, a_wavelet = auto_params(d)
    levels = a_levels if levels is None else levels
    w = get_wavelet(a_wavelet if wavelet is None else wavelet)
    if d > 6 and w.max_fanout > 1:
        raise ValueError(
            f"wavelet {w.name!r} has fanout {w.max_fanout} per dimension; "
            f"at d={d} the sparse transform may grow by {w.max_fanout}**{d}. "
            "Use 'haar' for high-dimensional data."
        )

    # -- steps 1-2: quantize (Spark), collect the grid, transform (numpy) --
    spec = fit_grid(df, features, scale)
    cells = assign_cells(df, spec)
    grid = grid_densities(cells, d)
    tcells, tdens, n_grid = dwt_spark(grid, d, wavelet=w, levels=levels)

    # -- step 2b/3: coefficient denoising + adaptive threshold -------------
    n_transformed = len(tdens)
    nonzero = tdens > _EPS_COEF
    tcells, tdens = tcells[nonzero], tdens[nonzero]
    dens = np.sort(tdens)[::-1]
    if len(dens) < 8 or (len(dens) and dens[0] <= 4 * dens[-1]):
        # too few occupied cells, or a near-flat density curve: there is
        # no signal/noise split to find (typical of coarse high-d grids) —
        # keep everything rather than elbow on structureless data
        t = float(dens[-1]) - 1.0 if len(dens) else 0.0
    elif threshold_method == "elbow":
        # 2-D noisy grids have a dominant signal/noise corner (stage 1);
        # coarse high-d grids have no uniform-noise plateau, and the first
        # corner would amputate minority clusters — cut at the second,
        # gentler corner instead (the paper's literal three-segment read)
        stage = elbow_stage if elbow_stage is not None else (1 if d <= 2 else 2)
        t = elbow_threshold(dens, stage=stage)
    elif threshold_method == "angle":
        t = angle_threshold(dens)
    else:
        raise ValueError(f"unknown threshold method {threshold_method!r}")
    kept = tdens > t
    if len(tdens) and not kept.any():
        # a degenerate elbow (e.g. all-equal densities) must not erase the
        # data — fall back to keeping every non-zero cell
        t = float(dens[-1]) - 1.0
        kept[:] = True
    kcells, kdens = tcells[kept], tdens[kept]

    # -- step 4: connected components over surviving cells -----------------
    # cells arrive in lexicographic order, so label numbering is deterministic
    labels = connected_components(kcells, adjacency=adjacency)
    if len(labels) and min_component_frac > 0:
        # prune spurious micro-components back into noise, by density mass
        # (not cell count: a legitimate cluster may occupy one cell when the
        # grid is coarse, but it carries a large share of the total mass)
        mass = np.bincount(labels, weights=kdens)
        ok = mass[labels] >= min_component_frac * mass.sum()
        kcells = kcells[ok]
        _, labels = np.unique(labels[ok], return_inverse=True)
    n_clusters = int(labels.max()) + 1 if len(labels) else 0

    # -- step 5: lookup table + broadcast label join (Spark) ---------------
    tcols = cell_cols(d)
    schema = StructType(
        [StructField(c, LongType(), False) for c in tcols]
        + [StructField("cluster", LongType(), False)]
    )
    lut_pdf = pd.DataFrame(kcells, columns=tcols).assign(cluster=labels)
    lut = df.sparkSession.createDataFrame(lut_pdf, schema)
    keep = [c for c in df.columns if c != "cluster"]  # an input "cluster" is replaced
    keyed = cells.select(*keep, *[F.shiftright(c, levels).alias(c) for c in tcols])
    out = keyed.join(F.broadcast(lut), tcols, "left").select(
        *keep, F.coalesce("cluster", F.lit(-1).cast("long")).alias("cluster")
    )

    if not keep_model:
        return out
    model = AdaWaveModel(
        spec=spec,
        scale=spec.scale,
        levels=levels,
        wavelet=w.name,
        threshold=float(t),
        n_clusters=n_clusters,
        n_grid_cells=n_grid,
        n_transformed_cells=n_transformed,
        n_kept_cells=len(kcells),
        densities_sorted=dens,
        labeled_cells=lut,
    )
    return out, model
