"""Forward projection: image → sinogram.

The Siddon traversal of a view depends only on the geometry, the image
grid and the pixel size — never on the pixel values.  So
:func:`projection_tables` traces every view once per
``(geometry, image shape, pixel_size)`` and memoizes the per-view
:class:`~repro.ct.siddon.RayTable` list, the way
:func:`repro.ct.fbp.ramp_filter_1d` memoizes the ramp filter.
:func:`forward_project` is then a gather-reduce per view over the cached
tables, for every slice of a volume and every dose arm.

Table size is about ``12 · views · detectors · (nx + ny + 2)`` bytes
(int32 indices plus float64 weights): 18 MB at ``paper_geometry(64/512)``
with a 64² grid, but 9 GB at the full paper geometry with a 512² grid.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple, Union

import numpy as np

from repro.ct.geometry import FanBeamGeometry, ParallelBeamGeometry
from repro.ct.siddon import RayTable, ray_integrals, siddon_rays

Geometry = Union[FanBeamGeometry, ParallelBeamGeometry]


def ray_extent(image_shape: Tuple[int, int], pixel_size: float) -> float:
    """Half-length (mm) of parallel-beam rays: safely spans the grid."""
    ny, nx = image_shape
    return 0.75 * pixel_size * float(np.hypot(nx, ny))


def projection_tables(
    geometry: Geometry,
    image_shape: Tuple[int, int],
    pixel_size: float = 1.0,
) -> Tuple[RayTable, ...]:
    """Per-view Siddon ray tables of ``geometry`` over an ``image_shape`` grid.

    Memoized by ``(geometry, image_shape, pixel_size)``; the tables are
    **read-only** (they are the shared cache entry).
    """
    ny, nx = image_shape
    return _projection_tables_cached(geometry, int(ny), int(nx), float(pixel_size))


@lru_cache(maxsize=8)
def _projection_tables_cached(geometry: Geometry, ny: int, nx: int, pixel_size: float):
    extent = ray_extent((ny, nx), pixel_size)
    return tuple(
        siddon_rays(*geometry.rays(view, extent), (ny, nx), pixel_size).freeze()
        for view in range(geometry.num_views)
    )


def forward_project(
    image: np.ndarray,
    geometry: Geometry,
    pixel_size: float = 1.0,
) -> np.ndarray:
    """Compute the sinogram of ``image`` under ``geometry``.

    Parameters
    ----------
    image:
        (N, M) attenuation map (per mm).
    geometry:
        Fan- or parallel-beam geometry.
    pixel_size:
        Image pixel pitch in mm.

    Returns
    -------
    (num_views, num_detectors) array of line integrals.
    """
    image = np.ascontiguousarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"image must be 2-D; got shape {image.shape}")
    tables = projection_tables(geometry, image.shape, pixel_size)
    sino = np.empty((geometry.num_views, geometry.num_detectors))
    for view, table in enumerate(tables):
        sino[view] = ray_integrals(image, table)
    return sino
