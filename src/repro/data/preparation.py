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

from repro.ct import add_poisson_noise, fbp_reconstruct, forward_project
from repro.ct.sinogram import build_geometry_tables
from repro.data.phantom import HU_AIR
from repro.parallel.pool import chunk_indices, parallel_map, resolve_workers
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


def _simulate_slab_into(
    item: Tuple[range, List[np.random.SeedSequence]],
    src: ShmArray,
    outs: List[ShmArray],
    geometry,
    blank_scans: Tuple[Optional[float], ...],
    pixel_size: float,
    filter_window: str,
) -> range:
    """Fan-out work item: the §3.1.2 chain on a slab of shared slices.

    Each entry of ``blank_scans`` is one output arm: ``None``
    reconstructs the clean sinogram, a photon count its Poisson-noised
    copy.  The noisy arms draw in order from each slice's own generator.
    """
    slab, seeds = item
    clean = forward_project(src.asarray()[slab.start:slab.stop], geometry, pixel_size)
    arms = np.empty((len(blank_scans),) + clean.shape)
    for z, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for arm, blank_scan in zip(arms, blank_scans):
            arm[z] = (clean[z] if blank_scan is None
                      else add_poisson_noise(clean[z], blank_scan, rng=rng))
    recon = fbp_reconstruct(arms.reshape((-1,) + clean.shape[1:]), geometry,
                            src.shape[1], pixel_size, filter_window)
    for out, arm in zip(outs, np.split(recon, len(blank_scans))):
        out.asarray()[slab.start:slab.stop] = arm
    return slab


def _simulate_volume(volume_mu, geometry, blank_scans, pixel_size, filter_window,
                     seed, workers, bus) -> Tuple[np.ndarray, ...]:
    """One reconstructed volume per entry of ``blank_scans``, slab by slab.

    ``workers=N`` cuts the volume into ``N`` contiguous slabs across
    processes, with the input and the reconstructions in shared memory.
    Each slice keeps its own :class:`~numpy.random.SeedSequence` child of
    ``seed``, and each slab is one column block of the operators'
    products, so no output depends on the cut.  The operators are built
    before any fork, so workers inherit them.
    """
    volume_mu = np.asarray(volume_mu, dtype=np.float64)
    if volume_mu.ndim != 3:
        raise ValueError(f"expected (D, H, W) volume; got shape {volume_mu.shape}")
    if volume_mu.shape[1] != volume_mu.shape[2]:
        raise ValueError("FBP reconstruction needs square slices")
    build_geometry_tables(geometry, volume_mu.shape[1], pixel_size)
    seeds = spawn_seeds(seed, volume_mu.shape[0])
    slabs = [(r, seeds[r.start:r.stop])
             for r in chunk_indices(volume_mu.shape[0], resolve_workers(workers))]
    with shm_scope() as scope:
        src = scope.share(volume_mu)
        outs = [scope.create(volume_mu.shape, np.float64) for _ in blank_scans]
        parallel_map(
            partial(_simulate_slab_into, src=src, outs=outs, geometry=geometry,
                    blank_scans=blank_scans, pixel_size=pixel_size,
                    filter_window=filter_window),
            slabs, workers=workers, bus=bus, source="repro.data.simulate")
        return tuple(out.copy() for out in outs)


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

    The volume-scale version of the §3.1.2 recipe: one forward
    projection of the whole volume, Poisson noise slice by slice, and
    one FBP of both dose arms of every slice, fanned across ``workers``
    processes in contiguous slabs.  Each slice draws from its own
    :class:`~numpy.random.SeedSequence` child of ``seed``, so outputs
    are bit-identical for every worker count, and each slice equals
    :func:`~repro.ct.simulate_low_dose_pair` on it bit for bit.

    Returns ``(full_dose, low_dose)`` attenuation volumes of
    ``volume_mu``'s shape.
    """
    return _simulate_volume(volume_mu, geometry, (None, blank_scan), pixel_size,
                            filter_window, seed, workers, bus)


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
    (Table 1's full/quarter-dose archive) — with the same slab fan-out
    and per-slice seeding as :func:`simulate_low_dose_volume`, so
    outputs are bit-identical for every worker count.
    """
    if not 0.0 < dose_fraction <= 1.0:
        raise ValueError(f"dose_fraction must be in (0, 1]; got {dose_fraction}")
    return _simulate_volume(volume_mu, geometry,
                            (full_blank_scan, full_blank_scan * dose_fraction),
                            pixel_size, filter_window, seed, workers, bus)
