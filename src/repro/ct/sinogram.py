"""Sinogram container and the full low-dose simulation pipeline (Fig. 8).

:func:`simulate_low_dose_pair` is the §3.1.2 recipe end to end: forward
project with Siddon, corrupt with Beer's-law Poisson noise at the
requested dose, and FBP-reconstruct both the clean (full-dose) and the
noisy (low-dose) image.  The pair is exactly what Enhancement AI trains
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.ct.fbp import FilterName, fbp_reconstruct
from repro.ct.geometry import FanBeamGeometry, ParallelBeamGeometry
from repro.ct.noise import PAPER_BLANK_SCAN, add_poisson_noise
from repro.ct.projector import forward_project

Geometry = Union[FanBeamGeometry, ParallelBeamGeometry]


@dataclass
class Sinogram:
    """Projection data plus the geometry that produced it."""

    data: np.ndarray
    geometry: Geometry
    pixel_size: float = 1.0

    def __post_init__(self):
        expected = (self.geometry.num_views, self.geometry.num_detectors)
        if self.data.shape != expected:
            raise ValueError(f"sinogram shape {self.data.shape} != geometry {expected}")

    @classmethod
    def from_image(cls, image: np.ndarray, geometry: Geometry, pixel_size: float = 1.0) -> "Sinogram":
        return cls(forward_project(image, geometry, pixel_size), geometry, pixel_size)

    def with_noise(self, blank_scan: float = PAPER_BLANK_SCAN, rng=None) -> "Sinogram":
        return Sinogram(add_poisson_noise(self.data, blank_scan, rng=rng), self.geometry, self.pixel_size)

    def reconstruct(self, image_size: int, filter_window: FilterName = "ramp") -> np.ndarray:
        return fbp_reconstruct(self.data, self.geometry, image_size, self.pixel_size, filter_window)


def simulate_low_dose_pair(
    image_mu: np.ndarray,
    geometry: Geometry,
    blank_scan: float = PAPER_BLANK_SCAN,
    pixel_size: float = 1.0,
    filter_window: FilterName = "hann",
    rng=None,
) -> Tuple[np.ndarray, np.ndarray, Sinogram]:
    """Produce (full-dose FBP, low-dose FBP, noisy sinogram) for one slice.

    Parameters
    ----------
    image_mu:
        Ground-truth attenuation map (per mm).
    blank_scan:
        Photons per ray; the paper uses 1e6.  Lower = lower dose.
    filter_window:
        FBP apodization; Hann tames the noise amplification of the pure
        ramp and is the practical clinical choice.
    """
    clean = Sinogram.from_image(image_mu, geometry, pixel_size)
    noisy = clean.with_noise(blank_scan, rng=rng)
    n = image_mu.shape[0]
    full_dose = clean.reconstruct(n, filter_window)
    low_dose = noisy.reconstruct(n, filter_window)
    return full_dose, low_dose, noisy


def simulate_dose_fraction_pair(
    image_mu: np.ndarray,
    geometry: Geometry,
    full_blank_scan: float = PAPER_BLANK_SCAN,
    dose_fraction: float = 0.25,
    pixel_size: float = 1.0,
    filter_window: FilterName = "hann",
    rng=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Mayo-Clinic-style (full dose, fractional dose) reconstruction pair.

    The Mayo archive provides the *same* scans at full and quarter X-ray
    dosage (Table 1); this reproduces that protocol: both arms carry
    Poisson noise from the same acquisition model, the second with
    ``dose_fraction`` of the photons (default 1/4).
    """
    if not 0.0 < dose_fraction <= 1.0:
        raise ValueError(f"dose_fraction must be in (0, 1]; got {dose_fraction}")
    rng = rng or np.random.default_rng(0)
    clean = Sinogram.from_image(image_mu, geometry, pixel_size)
    n = image_mu.shape[0]
    full = clean.with_noise(full_blank_scan, rng=rng).reconstruct(n, filter_window)
    frac = clean.with_noise(full_blank_scan * dose_fraction, rng=rng).reconstruct(
        n, filter_window
    )
    return full, frac
