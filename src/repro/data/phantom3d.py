"""3D chest-CT volume phantom.

Stacks per-slice phantoms along z with anatomically plausible
continuity: a single patient configuration is drawn once, the lung
cross-section follows an ellipsoidal profile (small at apex and base,
maximal mid-thorax), and COVID lesions span several adjacent slices so
3D networks see genuinely volumetric signal.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.data.lesions import COVID_LESION_TYPES, add_lesion
from repro.data.phantom import ChestPhantomConfig, chest_slice

#: Lesion menus per disease (``disease`` argument of :func:`chest_volume`).
DISEASE_LESIONS = {
    "covid": list(COVID_LESION_TYPES),
    "pneumonia": ["diffuse_pneumonia"],
    "nodule": ["nodule"],
}


def _lung_profile(num_slices: int) -> np.ndarray:
    """Ellipsoidal lung-size profile along z, in (0.35, 1]."""
    z = np.linspace(-1.0, 1.0, num_slices)
    return 0.35 + 0.65 * np.sqrt(np.clip(1.0 - z**2, 0.0, None))


def chest_volume(
    size: int = 64,
    num_slices: int = 32,
    covid: bool = False,
    num_lesions: Optional[int] = None,
    lesion_kinds: Optional[List[str]] = None,
    disease: Optional[str] = None,
    rng=None,
    config: Optional[ChestPhantomConfig] = None,
    return_lesion_mask: bool = False,
):
    """Generate one 3D chest CT scan in HU, shape (num_slices, size, size).

    Parameters
    ----------
    covid:
        When true, insert ``num_lesions`` volumetric lesions (default
        2-5, randomly typed from ``lesion_kinds``) spanning ~20-40% of
        the slices each.  Shorthand for ``disease='covid'``.
    disease:
        ``'covid'``, ``'pneumonia'``, or ``'nodule'`` — selects the
        lesion menu (see :data:`DISEASE_LESIONS`); the §7 "other
        maladies" extension.  Overrides ``covid``/``lesion_kinds``.
    return_lesion_mask:
        Also return a boolean per-voxel mask of inserted abnormality.
    """
    rng = rng or np.random.default_rng(0)
    config = config or ChestPhantomConfig(size=size)
    if config.size != size:
        raise ValueError(f"config.size {config.size} != size {size}")
    if disease is not None:
        if disease not in DISEASE_LESIONS:
            raise KeyError(f"unknown disease {disease!r}; choose from {sorted(DISEASE_LESIONS)}")
        covid = True  # "diseased": insert lesions from the menu below
        lesion_kinds = DISEASE_LESIONS[disease]
    # One patient: freeze anatomy with a dedicated seed, vary per slice
    # only through the lung profile and additive texture noise.
    anatomy_seed = int(rng.integers(0, 2**31))
    profile = _lung_profile(num_slices)

    volume = np.empty((num_slices, size, size))
    lung_masks = []
    for z in range(num_slices):
        slice_rng = np.random.default_rng(anatomy_seed)  # same anatomy...
        img, masks = chest_slice(config, slice_rng, lung_scale=profile[z], return_masks=True)
        texture_rng = np.random.default_rng(anatomy_seed + 1000 + z)
        img = img + texture_rng.normal(0.0, 6.0, size=img.shape) * masks["lungs"]
        volume[z] = img
        lung_masks.append(masks["lungs"])

    lesion_mask = np.zeros_like(volume, dtype=bool)
    if covid:
        kinds = lesion_kinds or list(COVID_LESION_TYPES)
        n_lesions = num_lesions if num_lesions is not None else int(rng.integers(2, 6))
        for _ in range(n_lesions):
            kind = kinds[rng.integers(0, len(kinds))]
            extent = max(2, int(num_slices * rng.uniform(0.2, 0.4)))
            z0 = int(rng.integers(0, max(1, num_slices - extent)))
            lesion_rng = np.random.default_rng(int(rng.integers(0, 2**31)))
            # Reuse one lesion seed across its slices so the footprint is
            # coherent in 3D; taper intensity toward the lesion's poles.
            state = lesion_rng.bit_generator.state
            for dz in range(extent):
                z = z0 + dz
                if not lung_masks[z].any():
                    continue
                lesion_rng.bit_generator.state = state
                before = volume[z]
                taper = np.sin(np.pi * (dz + 0.5) / extent)
                if kind == "ggo":
                    after = add_lesion(before, lung_masks[z], kind, rng=lesion_rng,
                                       intensity=float(taper))
                else:
                    after = add_lesion(before, lung_masks[z], kind, rng=lesion_rng)
                    after = before + (after - before) * taper
                lesion_mask[z] |= np.abs(after - before) > 20.0
                volume[z] = after
    if return_lesion_mask:
        return volume, lesion_mask
    return volume

