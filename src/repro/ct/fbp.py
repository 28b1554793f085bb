"""Filtered back projection (FBP) reconstruction.

Implements both the parallel-beam and the weighted flat-detector
fan-beam FBP algorithms (Schofield et al. 2020 is the paper's FBP
citation).  Filtering uses the exact band-limited ramp kernel sampled
in the spatial domain (Kak & Slaney §3.3) — this avoids the DC bias of
a naively sampled frequency ramp — with optional Hann apodization.
Back projection is vectorized over all image pixels per view; where each
pixel lands on the detector in each view depends only on the geometry
and the grid, so :func:`backprojection_table` computes it once per
``(geometry, image_size, pixel_size)`` and every slice reuses it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Literal, NamedTuple, Optional, Union

import numpy as np

from repro.ct.geometry import FanBeamGeometry, ParallelBeamGeometry

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


def _filter_projections(sino: np.ndarray, spacing: float, window: FilterName) -> np.ndarray:
    n = sino.shape[1]
    H = ramp_filter_1d(n, spacing, window)
    size = H.shape[0]
    padded = np.zeros((sino.shape[0], size))
    padded[:, :n] = sino
    filtered = np.real(np.fft.ifft(np.fft.fft(padded, axis=1) * H[None, :], axis=1))
    return filtered[:, :n] * spacing


class BackprojectionTable(NamedTuple):
    """Where every pixel of an N×N grid lands on the detector, per view.

    Attributes
    ----------
    lo: (V, N, N) int32 lower detector bin of each pixel's projection,
        clipped into ``[0, n_det - 2]``.
    frac: (V, N, N) linear-interpolation weight of bin ``lo + 1``.
    valid: (V, N, N) pixels whose projection falls inside the detector.
    u2: (V, N, N) fan-beam distance weight ``U²``; ``None`` for
        parallel beam.
    """

    lo: np.ndarray
    frac: np.ndarray
    valid: np.ndarray
    u2: Optional[np.ndarray]


def backprojection_table(geometry: Geometry, image_size: int, pixel_size: float = 1.0) -> BackprojectionTable:
    """Per-view detector positions of every pixel, for the FBP back projection.

    Memoized by ``(geometry, image_size, pixel_size)`` — the per-pixel
    trigonometry is the same for every slice and dose arm.  The arrays
    are **read-only** (they are the shared cache entry).
    """
    return _backprojection_cached(geometry, int(image_size), float(pixel_size))


@lru_cache(maxsize=8)
def _backprojection_cached(geometry: Geometry, image_size: int, pixel_size: float) -> BackprojectionTable:
    half = (image_size - 1) / 2.0
    ys, xs = np.mgrid[0:image_size, 0:image_size]
    x = (xs - half) * pixel_size
    y = (ys - half) * pixel_size
    det = geometry.detector_coords
    spacing = geometry.detector_spacing
    shape = (geometry.num_views, image_size, image_size)
    lo = np.empty(shape, dtype=np.int32)
    frac = np.empty(shape)
    valid = np.empty(shape, dtype=bool)
    u2 = None
    if isinstance(geometry, ParallelBeamGeometry):
        det0 = det[0]
    else:
        sod = geometry.source_to_isocenter
        sdd = geometry.source_to_detector
        det0 = det[0] * (sod / sdd)
        spacing = spacing * (sod / sdd)
        u2 = np.empty(shape)
    n = geometry.num_detectors
    for view, beta in enumerate(geometry.angles):
        if u2 is None:
            coords = -x * np.sin(beta) + y * np.cos(beta)
        else:
            # Fan beam: project onto the isocenter-scaled detector.
            e_s = np.array([np.cos(beta), np.sin(beta)])
            e_t = np.array([-np.sin(beta), np.cos(beta)])
            s = x * e_s[0] + y * e_s[1]
            t = x * e_t[0] + y * e_t[1]
            U = (sod - s) / sod
            coords = t / U
            u2[view] = U * U
        idx = (coords - det0) / spacing
        bins = np.floor(idx).astype(np.int64)
        frac[view] = idx - bins
        valid[view] = (bins >= 0) & (bins < n - 1)
        lo[view] = np.clip(bins, 0, n - 2)
    table = BackprojectionTable(lo, frac, valid, u2)
    for a in table:
        if a is not None:
            a.setflags(write=False)
    return table


def _interp_view(proj: np.ndarray, table: BackprojectionTable, view: int) -> np.ndarray:
    """Linear interpolation of one filtered projection at every pixel."""
    lo, frac = table.lo[view], table.frac[view]
    vals = np.take(proj, lo) * (1.0 - frac) + np.take(proj[1:], lo) * frac
    return np.where(table.valid[view], vals, 0.0)


def fbp_reconstruct(
    sinogram: np.ndarray,
    geometry: Geometry,
    image_size: int,
    pixel_size: float = 1.0,
    filter_window: FilterName = "ramp",
) -> np.ndarray:
    """Reconstruct an ``image_size²`` attenuation map from a sinogram.

    Dispatches on the geometry type: plain FBP for parallel beam,
    cosine-weighted distance-corrected FBP for flat-detector fan beam.
    """
    sinogram = np.asarray(sinogram, dtype=np.float64)
    expected = (geometry.num_views, geometry.num_detectors)
    if sinogram.shape != expected:
        raise ValueError(f"sinogram shape {sinogram.shape} != geometry {expected}")
    table = backprojection_table(geometry, image_size, pixel_size)
    spacing = geometry.detector_spacing
    recon = np.zeros((image_size, image_size))

    if isinstance(geometry, ParallelBeamGeometry):
        filtered = _filter_projections(sinogram, spacing, filter_window)
        for view in range(geometry.num_views):
            recon += _interp_view(filtered[view], table, view)
        recon *= geometry.angular_range / geometry.num_views
        # A full 2π parallel scan measures every line twice.
        if geometry.angular_range > 1.5 * np.pi:
            recon *= 0.5
        return recon

    # Fan beam (flat detector): scale detector coords to the isocenter,
    # cosine-weight, ramp-filter, then distance-weighted backprojection.
    sod = geometry.source_to_isocenter
    sdd = geometry.source_to_detector
    iso_coords = geometry.detector_coords * (sod / sdd)
    iso_spacing = spacing * (sod / sdd)
    weights = sod / np.sqrt(sod**2 + iso_coords**2)
    weighted = sinogram * weights[None, :]
    filtered = _filter_projections(weighted, iso_spacing, filter_window)
    for view in range(geometry.num_views):
        recon += _interp_view(filtered[view], table, view) / table.u2[view]
    recon *= geometry.angular_range / geometry.num_views
    if geometry.angular_range > 1.5 * np.pi:
        recon *= 0.5  # full-rotation redundancy
    return recon
