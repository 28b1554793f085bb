"""Siddon's exact ray-driven projection (Siddon 1985), vectorized.

Computes the exact radiological path — the length-weighted sum of pixel
values along each ray — for a batch of rays simultaneously.  The
classic per-ray merge of x- and y-plane crossings is replaced by a
dense formulation: for R rays through an N×N grid, *all* plane
intersection parameters form an (R, 2N+2) array that is clipped to each
ray's [α_min, α_max] interval, sorted per row, and reduced with
fancy-indexed gathers.  No Python loop over rays.

The work splits in two.  :func:`siddon_rays` does the traversal — the
crossing sort and the pixel indexing — and depends only on the rays and
the grid, so it yields a :class:`RayTable` that can be built once per
geometry and reused for every image.  :func:`ray_integrals` (the
projector) and :func:`ray_backproject` (its exact adjoint) are cheap
gather / scatter passes over such a table.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np


class RayTable(NamedTuple):
    """The Siddon traversal of R rays through one pixel grid.

    Each ray is cut into S = nx + ny + 2 segments; segments outside
    the grid carry zero weight.

    Attributes
    ----------
    index: (R, S) int32 flat (row-major) pixel index of each segment.
    weight: (R, S) segment length as a fraction of the ray, 0 where the
        segment lies outside the grid or is empty.
    length: (R,) ray length in mm.
    dead: (R,) rays that miss the grid or have zero length.
    """

    index: np.ndarray
    weight: np.ndarray
    length: np.ndarray
    dead: np.ndarray

    def freeze(self) -> "RayTable":
        """Mark every array read-only (for tables shared through a cache)."""
        for a in self:
            a.setflags(write=False)
        return self


def siddon_rays(
    starts: np.ndarray,
    ends: np.ndarray,
    image_shape: Tuple[int, int],
    pixel_size: float = 1.0,
) -> RayTable:
    """Trace rays from ``starts`` to ``ends`` through an ``image_shape`` grid.

    Parameters
    ----------
    starts, ends:
        (R, 2) world coordinates (x, y) in mm of each ray's endpoints.
    image_shape:
        (ny, nx) of the pixel grid.  Row index is y (increasing upward),
        column index is x; the grid is centred on the origin.
    pixel_size:
        Pixel pitch in mm.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=np.float64))
    ends = np.atleast_2d(np.asarray(ends, dtype=np.float64))
    if starts.shape != ends.shape or starts.shape[1] != 2:
        raise ValueError("starts/ends must both be (R, 2)")

    ny, nx = image_shape
    # Grid plane positions (pixel boundaries), centred on the origin.
    x_planes = (np.arange(nx + 1) - nx / 2.0) * pixel_size
    y_planes = (np.arange(ny + 1) - ny / 2.0) * pixel_size

    d = ends - starts                              # (R, 2)
    lengths = np.linalg.norm(d, axis=1)
    degenerate = lengths < 1e-12
    safe_d = np.where(np.abs(d) < 1e-12, 1e-12, d)

    # Parametric crossings with every vertical / horizontal grid plane.
    ax = (x_planes[None, :] - starts[:, 0:1]) / safe_d[:, 0:1]   # (R, nx+1)
    ay = (y_planes[None, :] - starts[:, 1:2]) / safe_d[:, 1:2]   # (R, ny+1)
    # Rays parallel to an axis never cross that axis' planes: push those
    # crossings outside [0, 1] so the clip removes them.
    ax = np.where(np.abs(d[:, 0:1]) < 1e-12, -1.0, ax)
    ay = np.where(np.abs(d[:, 1:2]) < 1e-12, -1.0, ay)

    # Entry/exit parameters of the grid bounding box.
    with np.errstate(invalid="ignore"):
        a_min = np.maximum(
            np.minimum(ax[:, 0], ax[:, -1]) if nx else 0.0,
            np.minimum(ay[:, 0], ay[:, -1]),
        )
        a_max = np.minimum(
            np.maximum(ax[:, 0], ax[:, -1]),
            np.maximum(ay[:, 0], ay[:, -1]),
        )
    # Rays parallel to an axis: bounding interval from the other axis
    # only, provided the parallel coordinate lies inside the grid.
    par_x = np.abs(d[:, 0]) < 1e-12
    par_y = np.abs(d[:, 1]) < 1e-12
    if par_x.any():
        inside = (starts[par_x, 0] >= x_planes[0]) & (starts[par_x, 0] <= x_planes[-1])
        lo = np.minimum(ay[par_x, 0], ay[par_x, -1])
        hi = np.maximum(ay[par_x, 0], ay[par_x, -1])
        a_min[par_x] = np.where(inside, lo, 1.0)
        a_max[par_x] = np.where(inside, hi, 0.0)
    if par_y.any():
        inside = (starts[par_y, 1] >= y_planes[0]) & (starts[par_y, 1] <= y_planes[-1])
        lo = np.minimum(ax[par_y, 0], ax[par_y, -1])
        hi = np.maximum(ax[par_y, 0], ax[par_y, -1])
        a_min[par_y] = np.where(inside, lo, 1.0)
        a_max[par_y] = np.where(inside, hi, 0.0)

    a_min = np.clip(a_min, 0.0, 1.0)
    a_max = np.clip(a_max, 0.0, 1.0)
    misses = a_max <= a_min

    # Merge all crossings, clamp into the active interval, and sort.
    alphas = np.concatenate([ax, ay], axis=1)
    alphas = np.clip(alphas, a_min[:, None], a_max[:, None])
    alphas.sort(axis=1)
    # Prepend a_min so the first segment starts at grid entry.
    alphas = np.concatenate([a_min[:, None], alphas], axis=1)

    seg = np.diff(alphas, axis=1)                  # (R, 2N+2) segment params
    mids = 0.5 * (alphas[:, 1:] + alphas[:, :-1])  # segment midpoints

    # Pixel index of each segment midpoint.
    mx = starts[:, 0:1] + mids * d[:, 0:1]
    my = starts[:, 1:2] + mids * d[:, 1:2]
    ix = np.floor((mx - x_planes[0]) / pixel_size).astype(np.int64)
    iy = np.floor((my - y_planes[0]) / pixel_size).astype(np.int64)
    valid = (seg > 1e-12) & (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
    ix = np.clip(ix, 0, nx - 1)
    iy = np.clip(iy, 0, ny - 1)
    index = (iy * nx + ix).astype(np.int32)
    return RayTable(index, seg * valid, lengths, misses | degenerate)


def ray_integrals(image: np.ndarray, table: RayTable) -> np.ndarray:
    """(R,) line integrals of ``image`` along the rays of ``table``."""
    values = np.take(image.ravel(), table.index)
    values *= table.weight
    values *= table.length[:, None]
    integrals = values.sum(axis=1)
    integrals[table.dead] = 0.0
    return integrals


def ray_backproject(values: np.ndarray, table: RayTable, image_shape: Tuple[int, int]) -> np.ndarray:
    """Adjoint of :func:`ray_integrals`: scatter ray values into pixels.

    Each live ray deposits ``value · segment_length`` into every pixel
    it crosses, so ``<A x, y> == <x, A^T y>`` holds to rounding.
    """
    values = np.where(table.dead, 0.0, values)
    contrib = table.weight * (table.length * values)[:, None]
    ny, nx = image_shape
    return np.bincount(table.index.ravel(), contrib.ravel(), minlength=ny * nx).reshape(ny, nx)


def siddon_raycast(
    image: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    pixel_size: float = 1.0,
) -> np.ndarray:
    """Exact line integrals of ``image`` along rays from starts to ends.

    Parameters
    ----------
    image:
        (N, M) pixel grid; values are linear attenuation per mm.  Row
        index is y (increasing upward), column index is x.  The grid is
        centred on the origin.
    starts, ends:
        (R, 2) world coordinates (x, y) in mm of each ray's endpoints.
    pixel_size:
        Pixel pitch in mm.

    Returns
    -------
    (R,) array of line integrals (dimensionless attenuation).
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"image must be 2-D; got shape {image.shape}")
    return ray_integrals(image, siddon_rays(starts, ends, image.shape, pixel_size))
