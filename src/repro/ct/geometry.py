"""Acquisition geometries.

Coordinates: the image is an N×N grid of square pixels centred on the
isocenter (origin), with physical pixel spacing in millimetres.  For a
view at angle β the source of a fan-beam system sits at
``SOD · (cos β, sin β)`` and a flat detector lies on the far side of the
isocenter, perpendicular to the central ray, at source distance SDD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class ParallelBeamGeometry:
    """Parallel-beam geometry (rays perpendicular to the detector).

    Attributes
    ----------
    num_views: projection angles, evenly spaced over ``angular_range``.
    num_detectors: samples per projection.
    detector_spacing: detector pixel pitch in mm.
    angular_range: total rotation in radians (π suffices for parallel).
    """

    num_views: int = 180
    num_detectors: int = 729
    detector_spacing: float = 1.0
    angular_range: float = np.pi

    def __post_init__(self):
        if self.num_views < 1 or self.num_detectors < 1:
            raise ValueError("geometry dimensions must be positive")

    @property
    def angles(self) -> np.ndarray:
        return np.arange(self.num_views) * (self.angular_range / self.num_views)

    @property
    def detector_coords(self) -> np.ndarray:
        """Signed detector coordinates (mm) centred on the central ray."""
        n = self.num_detectors
        return (np.arange(n) - (n - 1) / 2.0) * self.detector_spacing

    def rays(self, view: int, extent: float) -> Tuple[np.ndarray, np.ndarray]:
        """Ray (start, end) points for one view, spanning ``2·extent`` mm."""
        beta = self.angles[view]
        d = np.cos(beta), np.sin(beta)          # ray direction
        t = -np.sin(beta), np.cos(beta)         # detector direction
        u = self.detector_coords
        starts = np.stack([u * t[0] - extent * d[0], u * t[1] - extent * d[1]], axis=1)
        ends = np.stack([u * t[0] + extent * d[0], u * t[1] + extent * d[1]], axis=1)
        return starts, ends


@dataclass(frozen=True)
class FanBeamGeometry:
    """Flat-detector fan-beam geometry (the paper's configuration).

    Attributes
    ----------
    source_to_detector: SDD in mm (paper: 1500).
    source_to_isocenter: SOD in mm (paper: 1000).
    num_views: projections over ``angular_range`` (paper: 720 / 360°).
    num_detectors: detector pixels (paper: 1024).
    detector_spacing: detector pitch in mm.
    """

    source_to_detector: float = 1500.0
    source_to_isocenter: float = 1000.0
    num_views: int = 720
    num_detectors: int = 1024
    detector_spacing: float = 1.0
    angular_range: float = 2.0 * np.pi

    def __post_init__(self):
        if self.source_to_detector <= self.source_to_isocenter:
            raise ValueError("SDD must exceed SOD")
        if self.num_views < 1 or self.num_detectors < 1:
            raise ValueError("geometry dimensions must be positive")

    @property
    def angles(self) -> np.ndarray:
        return np.arange(self.num_views) * (self.angular_range / self.num_views)

    @property
    def detector_coords(self) -> np.ndarray:
        n = self.num_detectors
        return (np.arange(n) - (n - 1) / 2.0) * self.detector_spacing

    def source_position(self, view: int) -> np.ndarray:
        beta = self.angles[view]
        return self.source_to_isocenter * np.array([np.cos(beta), np.sin(beta)])

    def rays(self, view: int, extent: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        """Ray (source, detector-pixel) endpoints for one view."""
        beta = self.angles[view]
        e_s = np.array([np.cos(beta), np.sin(beta)])
        e_t = np.array([-np.sin(beta), np.cos(beta)])
        src = self.source_to_isocenter * e_s
        det_center = src - self.source_to_detector * e_s
        u = self.detector_coords[:, None]
        det = det_center[None, :] + u * e_t[None, :]
        starts = np.broadcast_to(src, det.shape).copy()
        return starts, det


def paper_geometry(scale: float = 1.0) -> FanBeamGeometry:
    """The §3.1.2 geometry, optionally shrunk by ``scale`` for tests.

    ``scale=1`` gives the paper's exact numbers (1500/1000 mm, 720
    views, 1024 detector pixels); ``scale=0.25`` keeps proportions while
    cutting view/detector counts for fast CPU runs.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    return FanBeamGeometry(
        source_to_detector=1500.0,
        source_to_isocenter=1000.0,
        num_views=max(8, int(round(720 * scale))),
        num_detectors=max(16, int(round(1024 * scale))),
        detector_spacing=1.0 / scale,
    )
