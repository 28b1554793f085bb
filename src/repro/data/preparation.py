"""Data preparation (§2.1).

Three operations the paper applies to harmonize its four sources:

1. retaining chest CT only (a no-op here: the generators emit CT),
2. removal of the circular reconstruction-FOV boundary present in
   BIMCV/MIDRC scans (Fig. 5),
3. keeping scans with ≥ 128 slices for isotropy (parametric here).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ct import add_poisson_noise, fbp_reconstruct, forward_project
from repro.data.phantom import HU_AIR
from repro.parallel.seeding import spawn_seeds


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

    Elementwise, so a whole (D, H, W) volume cleans in one call.
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


def _require_finite(volume: np.ndarray, entry: str) -> None:
    """Refuse a volume holding NaN or ±inf, naming the first bad voxel.

    Runs once per volume at the public entry, so the kernels below it
    never see (or spread) a non-finite value.
    """
    finite = np.isfinite(volume)
    if not finite.all():
        index = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"{entry}: volume of shape {volume.shape} holds "
                         f"{volume[index]} at index {index}")


def prepare_scan(
    volume: np.ndarray,
    min_slices: int = 128,
    boundary_threshold: float = -1500.0,
) -> Optional[np.ndarray]:
    """Full §2.1 preparation of one 3D scan.

    Returns the cleaned volume, or ``None`` when the scan fails the
    slice-count requirement.
    """
    if volume.ndim != 3:
        raise ValueError(f"expected (D, H, W) volume; got shape {volume.shape}")
    _require_finite(volume, "prepare_scan")
    if volume.shape[0] < min_slices:
        return None
    return remove_circular_boundary(volume, boundary_threshold)


def _simulate_volume(volume_mu, geometry, blank_scans, pixel_size, filter_window,
                     seed, entry) -> Tuple[np.ndarray, ...]:
    """One reconstructed volume per entry of ``blank_scans``.

    Each entry of ``blank_scans`` is one output arm: ``None``
    reconstructs the clean sinogram, a photon count its Poisson-noised
    copy.  One forward projection of the whole volume, then each slice
    draws its noisy arms in order from its own
    :class:`~numpy.random.SeedSequence` child of ``seed``, then one FBP
    of every arm.  The arms come back as independent arrays, so a
    caller that keeps one does not hold the others.
    """
    volume_mu = np.asarray(volume_mu, dtype=np.float64)
    if volume_mu.ndim != 3:
        raise ValueError(f"expected (D, H, W) volume; got shape {volume_mu.shape}")
    if volume_mu.shape[1] != volume_mu.shape[2]:
        raise ValueError("FBP reconstruction needs square slices")
    _require_finite(volume_mu, entry)
    clean = forward_project(volume_mu, geometry, pixel_size)
    arms = np.empty((len(blank_scans),) + clean.shape)
    for z, slice_seed in enumerate(spawn_seeds(seed, len(clean))):
        rng = np.random.default_rng(slice_seed)
        for arm, blank_scan in zip(arms, blank_scans):
            arm[z] = (clean[z] if blank_scan is None
                      else add_poisson_noise(clean[z], blank_scan, rng=rng))
    recon = fbp_reconstruct(arms.reshape((-1,) + clean.shape[1:]), geometry,
                            volume_mu.shape[1], pixel_size, filter_window)
    # Free the sinograms before allocating the outputs: outputs placed
    # above them would pin the freed space in the heap (about 4 MB of
    # peak RSS over a perfbench diagnosis).
    del clean, arms
    return tuple(arm.copy() for arm in np.split(recon, len(blank_scans)))


def simulate_low_dose_volume(
    volume_mu: np.ndarray,
    geometry,
    blank_scan: float = 1.0e6,
    pixel_size: float = 1.0,
    filter_window: str = "hann",
    seed: int = 0,
    workers: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run :func:`repro.ct.simulate_low_dose_pair` on every slice of a scan.

    The volume-scale version of the §3.1.2 recipe: one forward
    projection of the whole volume, Poisson noise slice by slice, and
    one FBP of both dose arms of every slice.  Each slice draws from its
    own :class:`~numpy.random.SeedSequence` child of ``seed``, so each
    slice equals :func:`~repro.ct.simulate_low_dose_pair` on it bit for
    bit.

    Returns ``(full_dose, low_dose)`` attenuation volumes of
    ``volume_mu``'s shape.
    """
    # perfbench's diagnose_lowdose passes workers=1 by keyword; the
    # argument stays until the benchmark stops passing it.
    if workers != 1:
        raise ValueError(f"simulate_low_dose_volume runs in one process; "
                         f"workers must be 1, got {workers}")
    return _simulate_volume(volume_mu, geometry, (None, blank_scan), pixel_size,
                            filter_window, seed, "simulate_low_dose_volume")


def simulate_dose_fraction_volume(
    volume_mu: np.ndarray,
    geometry,
    full_blank_scan: float = 1.0e6,
    dose_fraction: float = 0.25,
    pixel_size: float = 1.0,
    filter_window: str = "hann",
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Mayo-protocol (full, fractional) dose pairs for every slice of a scan.

    Volume-scale :func:`repro.ct.simulate_dose_fraction_pair` — both
    arms Poisson-noised, the second at ``dose_fraction`` of the photons
    (Table 1's full/quarter-dose archive) — with the same per-slice
    seeding as :func:`simulate_low_dose_volume`.
    """
    if not 0.0 < dose_fraction <= 1.0:
        raise ValueError(f"dose_fraction must be in (0, 1]; got {dose_fraction}")
    return _simulate_volume(volume_mu, geometry,
                            (full_blank_scan, full_blank_scan * dose_fraction),
                            pixel_size, filter_window, seed,
                            "simulate_dose_fraction_volume")
