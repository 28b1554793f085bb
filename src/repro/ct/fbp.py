"""Filtered back projection (FBP) reconstruction.

Implements both the parallel-beam and the weighted flat-detector
fan-beam FBP algorithms (Schofield et al. 2020 is the paper's FBP
citation).  Filtering uses the exact band-limited ramp kernel sampled
in the spatial domain (Kak & Slaney §3.3) — this avoids the DC bias of
a naively sampled frequency ramp — with optional Hann apodization.
Where each pixel lands on the detector in each view depends only on the
geometry and the grid, so the back projection is one fixed linear map:
:func:`backprojection_operator` builds it once per ``(geometry,
image_size, pixel_size)`` as a CSR matrix ``B`` of pixels by (views ×
detectors), and every slice and dose arm reuses it.  ``B`` holds two
entries per pixel per view (24 bytes): 8.8 MB at
``paper_geometry(64/512)`` with a 64² grid, growing as N³ under
``paper_geometry(N/512)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Literal, Union

import numpy as np

from repro.ct.geometry import FanBeamGeometry, ParallelBeamGeometry
from repro.ct.siddon import csr

if TYPE_CHECKING:
    from scipy.sparse import csr_array

Geometry = Union[FanBeamGeometry, ParallelBeamGeometry]
FilterName = Literal["ramp", "hann", "none"]


def ramp_filter_1d(n: int, spacing: float = 1.0, window: FilterName = "ramp") -> np.ndarray:
    """Frequency response (length ``2·next_pow2(n)``) of the ramp filter.

    Built from the space-domain band-limited ramp kernel so that the
    filtered projections have the correct DC behaviour.

    Results are memoized by ``(n, spacing, window)`` — every slice of a
    volume reconstruction reuses the same response, so recomputing the
    FFT per :func:`fbp_reconstruct` call was pure overhead on the
    low-dose simulation hot path.  The returned array is **read-only**
    (it is the shared cache entry); call ``.copy()`` to mutate.
    """
    return _ramp_filter_cached(int(n), float(spacing), str(window))


@lru_cache(maxsize=64)
def _ramp_filter_cached(n: int, spacing: float, window: str) -> np.ndarray:
    size = max(64, int(2 ** np.ceil(np.log2(2 * n))))
    # Space-domain kernel h[k] (Kak & Slaney eq. 61).
    k = np.concatenate([np.arange(size // 2), np.arange(-size // 2, 0)])
    h = np.zeros(size)
    h[0] = 1.0 / (4.0 * spacing**2)
    odd = k % 2 == 1
    h[odd] = -1.0 / (np.pi * k[odd] * spacing) ** 2
    H = np.real(np.fft.fft(h))  # kernel is real and symmetric
    if window == "hann":
        freq = np.fft.fftfreq(size)
        H *= 0.5 * (1.0 + np.cos(2.0 * np.pi * freq))
    elif window == "none":
        H = np.ones(size)
    elif window != "ramp":
        raise ValueError(f"unknown filter window {window!r}")
    H.setflags(write=False)
    return H


def _filter_projections(sino: np.ndarray, spacing: float, window: FilterName,
                        weight=None) -> np.ndarray:
    """Ramp-filter every projection (the last axis) in one batched real FFT.

    ``weight``, when given, multiplies ``sino`` first (the fan-beam
    cosine weight); the weighted copy lives only until its spectrum is
    taken.  Returns a view of the first ``n`` samples of each filtered
    projection.
    """
    n = sino.shape[-1]
    H = ramp_filter_1d(n, spacing, window)
    size = H.shape[0]
    spectrum = np.fft.rfft(sino if weight is None else sino * weight, n=size, axis=-1)
    spectrum *= spacing * H[: size // 2 + 1]  # H is real and even
    return np.fft.irfft(spectrum, n=size, axis=-1)[..., :n]


def backprojection_operator(geometry: Geometry, image_size: int,
                            pixel_size: float = 1.0) -> csr_array:
    """The FBP back projection of ``geometry`` onto an ``image_size²`` grid.

    Row ``p`` (a row-major pixel) holds, for every view, the two linear
    interpolation taps of the detector bins its projection falls
    between, ``(1 − frac)`` and ``frac``, scaled by the fan-beam
    distance weight ``1/U²``, the angular step and the full-rotation ½,
    and zero where the projection misses the detector.  So
    ``B @ filtered.ravel()`` is the reconstruction.  Memoized by
    ``(geometry, image_size, pixel_size)``; the arrays are
    **read-only** (they are the shared cache entry).
    """
    return _backprojection_cached(geometry, int(image_size), float(pixel_size))


@lru_cache(maxsize=8)
def _backprojection_cached(geometry: Geometry, image_size: int,
                           pixel_size: float) -> csr_array:
    half = (image_size - 1) / 2.0
    ys, xs = np.mgrid[0:image_size, 0:image_size]
    x = ((xs - half) * pixel_size).ravel()
    y = ((ys - half) * pixel_size).ravel()
    det = geometry.detector_coords
    spacing = geometry.detector_spacing
    fan = not isinstance(geometry, ParallelBeamGeometry)
    if fan:
        sod = geometry.source_to_isocenter
        det0 = det[0] * (sod / geometry.source_to_detector)
        spacing = spacing * (sod / geometry.source_to_detector)
    else:
        det0 = det[0]
    scale = geometry.angular_range / geometry.num_views
    if geometry.angular_range > 1.5 * np.pi:
        scale *= 0.5  # a full rotation measures every line twice
    n = geometry.num_detectors
    views = geometry.num_views
    # Written view by view into the final arrays: (pixel, view, tap).
    indices = np.empty((x.size, views, 2), dtype=np.int32)
    data = np.empty((x.size, views, 2))
    for view, beta in enumerate(geometry.angles):
        weight = scale
        if fan:
            # Project onto the isocenter-scaled detector.
            s = x * np.cos(beta) + y * np.sin(beta)
            t = -x * np.sin(beta) + y * np.cos(beta)
            U = (sod - s) / sod
            coords = t / U
            weight = scale / (U * U)
        else:
            coords = -x * np.sin(beta) + y * np.cos(beta)
        idx = (coords - det0) / spacing
        bins = np.floor(idx)
        frac = idx - bins
        weight = np.where((bins >= 0) & (bins < n - 1), weight, 0.0)
        lo = np.clip(bins, 0, n - 2).astype(np.int32) + view * n
        indices[:, view, 0] = lo
        indices[:, view, 1] = lo + 1
        data[:, view, 0] = weight * (1.0 - frac)
        data[:, view, 1] = weight * frac
    indptr = np.arange(0, data.size + 1, 2 * views, dtype=np.int32)
    data, indices = data.reshape(-1), indices.reshape(-1)
    for a in (data, indices, indptr):
        a.setflags(write=False)
    return csr(data, indices, indptr, (x.size, views * n))


def fbp_reconstruct(
    sinogram: np.ndarray,
    geometry: Geometry,
    image_size: int,
    pixel_size: float = 1.0,
    filter_window: FilterName = "ramp",
) -> np.ndarray:
    """Reconstruct ``image_size²`` attenuation maps from sinograms.

    ``sinogram`` is one (views, detectors) sinogram or a (D, views,
    detectors) stack; the result is (N, N) or (D, N, N).  Dispatches on
    the geometry type: plain FBP for parallel beam, cosine-weighted
    distance-corrected FBP for flat-detector fan beam.  Every sinogram
    is one column of a single product with the back projection, so a
    stack reconstructs each slice bit for bit as it would alone.
    """
    sinogram = np.asarray(sinogram, dtype=np.float64)
    expected = (geometry.num_views, geometry.num_detectors)
    if sinogram.ndim not in (2, 3) or sinogram.shape[-2:] != expected:
        raise ValueError(f"sinogram shape {sinogram.shape} != geometry {expected}")
    spacing = geometry.detector_spacing
    weight = None
    if not isinstance(geometry, ParallelBeamGeometry):
        # Fan beam (flat detector): scale detector coords to the
        # isocenter and cosine-weight before filtering.
        sod = geometry.source_to_isocenter
        iso_coords = geometry.detector_coords * (sod / geometry.source_to_detector)
        spacing = spacing * (sod / geometry.source_to_detector)
        weight = sod / np.sqrt(sod**2 + iso_coords**2)
    filtered = _filter_projections(sinogram.reshape((-1,) + expected), spacing,
                                   filter_window, weight)
    # One C-contiguous column per sinogram, copied once; the full-length
    # inverse-FFT buffer ``filtered`` views goes before the product.
    columns = np.ascontiguousarray(np.moveaxis(filtered, 0, -1)).reshape(-1, len(filtered))
    del filtered
    recon = backprojection_operator(geometry, image_size, pixel_size) @ columns
    return recon.T.reshape(sinogram.shape[:-2] + (image_size, image_size))
