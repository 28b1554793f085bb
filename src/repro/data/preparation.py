"""Data preparation (§2.1).

Three operations the paper applies to harmonize its four sources:

1. retaining chest CT only (a no-op here: the generators emit CT),
2. removal of the circular reconstruction-FOV boundary present in
   BIMCV/MIDRC scans (Fig. 5),
3. keeping scans with ≥ 128 slices for isotropy (parametric here).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.phantom import HU_AIR
from repro.parallel.pool import parallel_map, resolve_workers
from repro.parallel.seeding import spawn_seeds
from repro.parallel.shm import ShmArray, shm_scope


def add_circular_boundary(image: np.ndarray, radius_frac: float = 0.49,
                          value: float = -2048.0) -> np.ndarray:
    """Stamp the circular reconstruction FOV onto a slice (test helper).

    Scanners pad everything outside the reconstruction circle with a
    sentinel (often −2048); this reproduces that artifact so the removal
    path can be exercised.
    """
    n = image.shape[0]
    ys, xs = np.mgrid[0:n, 0:n]
    r = np.hypot(ys - (n - 1) / 2.0, xs - (n - 1) / 2.0)
    out = image.astype(np.float64).copy()
    out[r > radius_frac * n] = value
    return out


def detect_circular_boundary(image: np.ndarray, threshold: float = -1500.0) -> Optional[float]:
    """Detect a circular FOV boundary; returns its radius fraction or None.

    Looks for the sentinel band (values below any physical HU) arranged
    circularly around the image center.
    """
    below = image < threshold
    if not below.any():
        return None
    n = image.shape[0]
    ys, xs = np.mgrid[0 : image.shape[0], 0 : image.shape[1]]
    r = np.hypot(ys - (image.shape[0] - 1) / 2.0, xs - (image.shape[1] - 1) / 2.0)
    inside_r = r[~below]
    if len(inside_r) == 0:
        return 0.0
    return float(inside_r.max() / n)


def remove_circular_boundary(image: np.ndarray, threshold: float = -1500.0,
                             fill: float = HU_AIR) -> np.ndarray:
    """§2.1 / Fig. 5: replace the circular FOV sentinel region with air.

    Idempotent: images without a boundary are returned unchanged
    (as a copy).
    """
    out = np.asarray(image, dtype=np.float64).copy()
    out[out < threshold] = fill
    return out


def filter_min_slices(
    scans: Sequence[np.ndarray], min_slices: int = 128
) -> List[np.ndarray]:
    """§2.1: keep scans with at least ``min_slices`` 2D slices."""
    if min_slices < 1:
        raise ValueError("min_slices must be >= 1")
    return [s for s in scans if s.shape[0] >= min_slices]


def _clean_slice_into(z: int, src: ShmArray, dst: ShmArray,
                      threshold: float) -> int:
    """Fan-out work item: clean one slice of a shared volume in place."""
    dst.asarray()[z] = remove_circular_boundary(src.asarray()[z], threshold)
    return z


def prepare_scan(
    volume: np.ndarray,
    min_slices: int = 128,
    boundary_threshold: float = -1500.0,
    workers: Optional[int] = 1,
    bus=None,
) -> Optional[np.ndarray]:
    """Full §2.1 preparation of one 3D scan.

    Returns the cleaned volume, or ``None`` when the scan fails the
    slice-count requirement.  ``workers=N`` cleans slices across ``N``
    processes over shared memory; boundary removal is deterministic, so
    the result is identical for every worker count.
    """
    if volume.ndim != 3:
        raise ValueError(f"expected (D, H, W) volume; got shape {volume.shape}")
    if volume.shape[0] < min_slices:
        return None
    if resolve_workers(workers) <= 1:
        return np.stack([remove_circular_boundary(s, boundary_threshold) for s in volume])
    with shm_scope() as scope:
        src = scope.share(np.ascontiguousarray(volume, dtype=np.float64))
        dst = scope.create(volume.shape, np.float64)
        parallel_map(
            partial(_clean_slice_into, src=src, dst=dst, threshold=boundary_threshold),
            range(volume.shape[0]), workers=workers, bus=bus,
            source="repro.data.prepare")
        return dst.copy()


def _simulate_slice_into(
    item: Tuple[int, np.random.SeedSequence],
    src: ShmArray,
    full: ShmArray,
    low: ShmArray,
    geometry,
    blank_scan: float,
    pixel_size: float,
    filter_window: str,
) -> int:
    """Fan-out work item: §3.1.2 low-dose chain on one shared slice."""
    from repro.ct.sinogram import simulate_low_dose_pair

    z, seed = item
    full_z, low_z, _ = simulate_low_dose_pair(
        src.asarray()[z], geometry, blank_scan=blank_scan,
        pixel_size=pixel_size, filter_window=filter_window,
        rng=np.random.default_rng(seed),
    )
    full.asarray()[z] = full_z
    low.asarray()[z] = low_z
    return z


def _dose_fraction_slice_into(
    item: Tuple[int, np.random.SeedSequence],
    src: ShmArray,
    full: ShmArray,
    frac: ShmArray,
    geometry,
    full_blank_scan: float,
    dose_fraction: float,
    pixel_size: float,
    filter_window: str,
) -> int:
    """Fan-out work item: Mayo full/fractional-dose pair on one slice."""
    from repro.ct.sinogram import simulate_dose_fraction_pair

    z, seed = item
    full_z, frac_z = simulate_dose_fraction_pair(
        src.asarray()[z], geometry, full_blank_scan=full_blank_scan,
        dose_fraction=dose_fraction, pixel_size=pixel_size,
        filter_window=filter_window, rng=np.random.default_rng(seed),
    )
    full.asarray()[z] = full_z
    frac.asarray()[z] = frac_z
    return z


def simulate_low_dose_volume(
    volume_mu: np.ndarray,
    geometry,
    blank_scan: float = 1.0e6,
    pixel_size: float = 1.0,
    filter_window: str = "hann",
    seed: int = 0,
    workers: Optional[int] = 1,
    bus=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run :func:`repro.ct.simulate_low_dose_pair` on every slice of a scan.

    The volume-scale version of the §3.1.2 recipe — forward project,
    Poisson-corrupt, FBP-reconstruct, slice by slice — fanned across
    ``workers`` processes with the input and both reconstructions in
    shared memory.  Each slice draws from its own
    :class:`~numpy.random.SeedSequence` child of ``seed``, so outputs
    are bit-identical for every worker count.

    Returns ``(full_dose, low_dose)`` attenuation volumes of
    ``volume_mu``'s shape.
    """
    volume_mu = np.asarray(volume_mu, dtype=np.float64)
    if volume_mu.ndim != 3:
        raise ValueError(f"expected (D, H, W) volume; got shape {volume_mu.shape}")
    if volume_mu.shape[1] != volume_mu.shape[2]:
        raise ValueError("FBP reconstruction needs square slices")
    from repro.ct.sinogram import build_geometry_tables

    depth = volume_mu.shape[0]
    seeds = spawn_seeds(seed, depth)
    build_geometry_tables(geometry, volume_mu.shape[1], pixel_size)  # before the fork
    with shm_scope() as scope:
        src = scope.share(volume_mu)
        full = scope.create(volume_mu.shape, np.float64)
        low = scope.create(volume_mu.shape, np.float64)
        parallel_map(
            partial(_simulate_slice_into, src=src, full=full, low=low,
                    geometry=geometry, blank_scan=blank_scan,
                    pixel_size=pixel_size, filter_window=filter_window),
            list(enumerate(seeds)), workers=workers, bus=bus,
            source="repro.data.simulate")
        return full.copy(), low.copy()


def simulate_dose_fraction_volume(
    volume_mu: np.ndarray,
    geometry,
    full_blank_scan: float = 1.0e6,
    dose_fraction: float = 0.25,
    pixel_size: float = 1.0,
    filter_window: str = "hann",
    seed: int = 0,
    workers: Optional[int] = 1,
    bus=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Mayo-protocol (full, fractional) dose pairs for every slice of a scan.

    Volume-scale :func:`repro.ct.simulate_dose_fraction_pair` — both
    arms Poisson-noised, the second at ``dose_fraction`` of the photons
    (Table 1's full/quarter-dose archive) — with the same shared-memory
    fan-out and per-slice seeding as :func:`simulate_low_dose_volume`,
    so outputs are bit-identical for every worker count.
    """
    volume_mu = np.asarray(volume_mu, dtype=np.float64)
    if volume_mu.ndim != 3:
        raise ValueError(f"expected (D, H, W) volume; got shape {volume_mu.shape}")
    if volume_mu.shape[1] != volume_mu.shape[2]:
        raise ValueError("FBP reconstruction needs square slices")
    from repro.ct.sinogram import build_geometry_tables

    depth = volume_mu.shape[0]
    seeds = spawn_seeds(seed, depth)
    build_geometry_tables(geometry, volume_mu.shape[1], pixel_size)  # before the fork
    with shm_scope() as scope:
        src = scope.share(volume_mu)
        full = scope.create(volume_mu.shape, np.float64)
        frac = scope.create(volume_mu.shape, np.float64)
        parallel_map(
            partial(_dose_fraction_slice_into, src=src, full=full, frac=frac,
                    geometry=geometry, full_blank_scan=full_blank_scan,
                    dose_fraction=dose_fraction, pixel_size=pixel_size,
                    filter_window=filter_window),
            list(enumerate(seeds)), workers=workers, bus=bus,
            source="repro.data.simulate")
        return full.copy(), frac.copy()
