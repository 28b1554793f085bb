"""Forward projection: image → sinogram.

The Siddon traversal of a view depends only on the geometry, the image
grid and the pixel size — never on the pixel values.  So the whole
projection is one fixed linear map, and :func:`projection_operator`
builds it once per ``(geometry, image shape, pixel_size)`` as a CSR
matrix ``A`` of (views × detectors) rows by pixel columns, memoized the
way :func:`repro.ct.fbp.ramp_filter_1d` memoizes the ramp filter.
:func:`forward_project` is then one sparse product for a slice or for
every slice of a volume at once.

``A`` holds about 12 bytes (an int32 column plus a float64 length) per
pixel a ray crosses: 5.9 MB at ``paper_geometry(64/512)`` with a 64²
grid.  It grows as N³ under ``paper_geometry(N/512)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Tuple, Union

import numpy as np

from repro.ct.geometry import FanBeamGeometry, ParallelBeamGeometry
from repro.ct.siddon import csr, siddon_rays

if TYPE_CHECKING:
    from scipy.sparse import csr_array

Geometry = Union[FanBeamGeometry, ParallelBeamGeometry]


def ray_extent(image_shape: Tuple[int, int], pixel_size: float) -> float:
    """Half-length (mm) of parallel-beam rays: safely spans the grid."""
    ny, nx = image_shape
    return 0.75 * pixel_size * float(np.hypot(nx, ny))


def projection_operator(
    geometry: Geometry,
    image_shape: Tuple[int, int],
    pixel_size: float = 1.0,
) -> csr_array:
    """The Siddon projection of ``geometry`` over an ``image_shape`` grid.

    Row ``view · num_detectors + d`` holds the segment lengths (mm) of
    detector ``d``'s ray in that view, at the row-major pixel columns it
    crosses; rays that miss the grid are empty rows.  Memoized by
    ``(geometry, image_shape, pixel_size)``; the arrays are
    **read-only** (they are the shared cache entry).
    """
    ny, nx = image_shape
    return _projection_cached(geometry, int(ny), int(nx), float(pixel_size))


@lru_cache(maxsize=8)
def _projection_cached(geometry: Geometry, ny: int, nx: int, pixel_size: float):
    extent = ray_extent((ny, nx), pixel_size)
    rays = geometry.num_detectors
    indptr = np.zeros(geometry.num_views * rays + 1, dtype=np.int32)
    # Written view by view into the final arrays.  A ray crosses at most
    # nx + ny pixels; the initial capacity assumes half that on average
    # and grows in place if needed, then shrinks to fit.
    indices = np.empty(geometry.num_views * rays * max(1, (nx + ny) // 2), dtype=np.int32)
    data = np.empty(len(indices))
    nnz = 0
    for view in range(geometry.num_views):
        counts, index, lengths = siddon_rays(
            *geometry.rays(view, extent), (ny, nx), pixel_size).compact()
        end = nnz + len(index)
        if end > len(indices):
            for a in (indices, data):
                a.resize(2 * end, refcheck=False)
        indices[nnz:end] = index
        data[nnz:end] = lengths
        indptr[view * rays + 1:(view + 1) * rays + 1] = nnz + np.cumsum(counts)
        nnz = end
    for a in (indices, data):
        a.resize(nnz, refcheck=False)
    for a in (data, indices, indptr):
        a.setflags(write=False)
    return csr(data, indices, indptr, (geometry.num_views * rays, ny * nx))


def forward_project(
    image: np.ndarray,
    geometry: Geometry,
    pixel_size: float = 1.0,
) -> np.ndarray:
    """Compute the sinogram of an image, or of every slice of a volume.

    Parameters
    ----------
    image:
        (N, M) attenuation map (per mm), or a (D, N, M) stack of them.
    geometry:
        Fan- or parallel-beam geometry.
    pixel_size:
        Image pixel pitch in mm.

    Returns
    -------
    (num_views, num_detectors) line integrals, with the leading ``D``
    axis of a stack.  Each slice is one column of a single product, so
    it equals the projection of that slice alone bit for bit.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3):
        raise ValueError(f"image must be (N, M) or (D, N, M); got shape {image.shape}")
    ny, nx = image.shape[-2:]
    operator = projection_operator(geometry, (ny, nx), pixel_size)
    sino = operator @ image.reshape(-1, ny * nx).T
    return sino.T.reshape(image.shape[:-2] + (geometry.num_views, geometry.num_detectors))
