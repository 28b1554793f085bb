"""Segmentation AI: lung-field extraction (§2.3.1 / §3.2).

The paper uses NVIDIA Clara's pretrained AH-Net "as is": it never
trains segmentation, it only needs the binary lung map that gets
multiplied into the scan.  Two interchangeable back-ends provide that
map here:

- :func:`threshold_lung_mask` — a deterministic classical pipeline
  (HU thresholding + connected components + hole filling), standing in
  for the pretrained model exactly as a frozen network would,
- :class:`repro.models.ahnet.AHNet3D` — the trainable anisotropic
  hybrid network with true-shape (1, k, k) in-plane and (k, 1, 1)
  through-plane kernels, for users who want to train their own (tested
  on phantom data in the test suite).  No trained lung AH-Net ships
  with the repository: the network segments with the weights it is
  given.
"""

from __future__ import annotations

from typing import Literal, Optional, Tuple

import numpy as np
from scipy import ndimage

from repro.models.ahnet import AHNet3D


def threshold_lung_mask(
    volume_hu: np.ndarray,
    air_threshold: float = -500.0,
    min_fraction: float = 0.002,
) -> np.ndarray:
    """Deterministic lung segmentation of a (D, H, W) HU volume.

    Air-like voxels *inside* the body are lung candidates; the exterior
    is removed by flood-fill from the volume border, small components
    are dropped, and per-slice holes (vessels, lesions) are filled so
    opacified regions stay inside the mask — essential, since COVID
    lesions must survive the mask multiplication.
    """
    if volume_hu.ndim != 3:
        raise ValueError(f"expected (D, H, W); got shape {volume_hu.shape}")
    air = volume_hu < air_threshold
    # Exterior = air connected to the in-plane border (not through z, so
    # apex/base slices don't leak the whole stack).
    structure = np.zeros((3, 3, 3), dtype=bool)
    structure[1] = True  # in-plane 8..4-connectivity only
    structure[1, 1, 1] = True
    structure[1, 0, 1] = structure[1, 2, 1] = structure[1, 1, 0] = structure[1, 1, 2] = True
    labels, _ = ndimage.label(air, structure=structure)
    border_labels = np.unique(
        np.concatenate([
            labels[:, 0, :].ravel(), labels[:, -1, :].ravel(),
            labels[:, :, 0].ravel(), labels[:, :, -1].ravel(),
        ])
    )
    exterior = np.isin(labels, border_labels[border_labels != 0])
    lungs = air & ~exterior
    # Drop specks (trachea fragments, noise).
    labels3d, num = ndimage.label(lungs)
    if num:
        sizes = ndimage.sum(lungs, labels3d, index=np.arange(1, num + 1))
        keep = np.flatnonzero(sizes >= min_fraction * volume_hu[0].size) + 1
        lungs = np.isin(labels3d, keep)
    # Fill in-plane holes so dense lesions remain part of the lung field.
    filled = np.stack([ndimage.binary_fill_holes(s) for s in lungs])
    return filled


class SegmentationAI:
    """Lung segmentation tool with a frozen (pretrained-style) back-end.

    ``backend='threshold'`` (default) reproduces the paper's frozen
    pretrained-model role deterministically; ``backend='ahnet'`` uses a
    provided :class:`AHNet3D` as it is (train it first — the tests fit
    tiny instances to phantom masks).
    """

    def __init__(
        self,
        backend: Literal["threshold", "ahnet"] = "threshold",
        ahnet: Optional[AHNet3D] = None,
        air_threshold: float = -500.0,
    ):
        if backend not in ("threshold", "ahnet"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "ahnet" and ahnet is None:
            raise ValueError("backend='ahnet' requires an AHNet3D instance")
        self.backend = backend
        self.ahnet = ahnet
        self.air_threshold = air_threshold

    def segment(self, volume_hu: np.ndarray) -> np.ndarray:
        """Binary lung mask for a (D, H, W) HU volume."""
        if self.backend == "threshold":
            return threshold_lung_mask(volume_hu, self.air_threshold)
        return self.ahnet.predict_mask(volume_hu / 1000.0)

    def apply(self, volume_hu: np.ndarray, background_hu: float = -1000.0) -> Tuple[np.ndarray, np.ndarray]:
        """§3.2: multiply the binary map into the scan.

        Returns (segmented volume, mask).  Background voxels take
        ``background_hu`` (air) rather than literal zero — multiplying
        HU by 0 would paint water-density over the background.
        """
        mask = self.segment(volume_hu)
        segmented = np.where(mask, volume_hu, background_hu)
        return segmented, mask
