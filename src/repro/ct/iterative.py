"""Iterative CT reconstruction (SART) and sparse-view utilities.

The paper's related work (§6.3) positions DL enhancement against
iterative reconstruction; DDnet itself was introduced for *sparse-view*
CT (Zhang et al. 2018).  This module supplies both comparators:

- :func:`siddon_backproject` — the exact adjoint of the Siddon
  projector (length-weighted scatter over the same ray table),
- :func:`sart_reconstruct` — Simultaneous Algebraic Reconstruction
  Technique with per-view sweeps and standard row/column normalization,
- :func:`subsample_views` — derive a sparse-view geometry from a full
  one (e.g. 720 → 60 views), the regime where FBP streaks and DDnet
  enhancement shines.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Union

import numpy as np

from repro.ct.geometry import FanBeamGeometry, ParallelBeamGeometry
from repro.ct.projector import projection_tables
from repro.ct.siddon import ray_backproject, ray_integrals, siddon_rays

Geometry = Union[FanBeamGeometry, ParallelBeamGeometry]


def siddon_backproject(
    values: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    image_shape,
    pixel_size: float = 1.0,
) -> np.ndarray:
    """Adjoint of :func:`~repro.ct.siddon.siddon_raycast`: scatter ray values into pixels.

    Each ray deposits ``value · segment_length`` into every pixel it
    crosses.  Both directions share one traversal
    (:func:`~repro.ct.siddon.siddon_rays`), so ``<A x, y> == <x, A^T y>``
    holds to rounding for every ray, axis-parallel ones included (tested).
    """
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    table = siddon_rays(starts, ends, image_shape, pixel_size)
    return ray_backproject(values, table, image_shape)


def sart_reconstruct(
    sinogram: np.ndarray,
    geometry: Geometry,
    image_size: int,
    iterations: int = 10,
    relaxation: float = 0.5,
    pixel_size: float = 1.0,
    nonnegativity: bool = True,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """SART: per-view algebraic updates with row/column normalization.

    ``x ← x + λ · Dc · Aᵥᵀ Dr (bᵥ − Aᵥ x)`` swept over views ``v``,
    where ``Dr`` divides by each ray's intersection length and ``Dc`` by
    each pixel's accumulated weight.  Converges to a least-squares
    solution; slower than FBP but markedly better on sparse-view and
    noisy data (the §6.3 trade-off).
    """
    sinogram = np.asarray(sinogram, dtype=np.float64)
    expected = (geometry.num_views, geometry.num_detectors)
    if sinogram.shape != expected:
        raise ValueError(f"sinogram shape {sinogram.shape} != geometry {expected}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    n = image_size
    x = np.zeros((n, n)) if initial is None else initial.astype(np.float64).copy()
    ones = np.ones((n, n))
    # Per-view ray tables (shared with forward_project), row and column sums.
    views = []
    for table in projection_tables(geometry, (n, n), pixel_size):
        row_sums = ray_integrals(ones, table)
        col_sums = ray_backproject(np.ones(len(row_sums)), table, (n, n))
        views.append((table, np.maximum(row_sums, 1e-9), np.maximum(col_sums, 1e-9)))
    for _ in range(iterations):
        for v, (table, row_sums, col_sums) in enumerate(views):
            forward = ray_integrals(x, table)
            residual = (sinogram[v] - forward) / row_sums
            update = ray_backproject(residual, table, (n, n))
            x += relaxation * update / col_sums
            if nonnegativity:
                np.maximum(x, 0.0, out=x)
    return x


def subsample_views(geometry: Geometry, factor: int) -> Geometry:
    """Sparse-view geometry: keep every ``factor``-th view.

    The angular range is preserved (views stay evenly spaced), exactly
    the sparse-view acquisitions DDnet was designed to repair.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    new_views = max(1, geometry.num_views // factor)
    return replace(geometry, num_views=new_views)
