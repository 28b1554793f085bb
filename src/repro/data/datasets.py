"""Synthetic dataset stand-ins for the four Table 1 sources.

Each factory mirrors a clinical archive's *role* in the paper:

- :func:`mayo_clinic` — healthy scans with projection data at full and
  quarter dose (the enhancement training source),
- :func:`bimcv` — COVID-positive CT (also the basis of the simulated
  low-dose set, §3.1.2),
- :func:`midrc` — COVID-positive CT (classification positives),
- :func:`lidc` — healthy CT (classification negatives).

Scan counts default to small CPU-friendly numbers; pass
``num_scans=None`` to use the paper's full Table 1 counts.  Generation
is lazy — a :class:`SyntheticSource` materializes scans on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.ct.geometry import FanBeamGeometry, paper_geometry
from repro.ct.hounsfield import hu_to_mu, mu_to_hu, normalize_unit
from repro.ct.noise import PAPER_BLANK_SCAN
from repro.ct.sinogram import build_geometry_tables, simulate_low_dose_pair
from repro.data.phantom import ChestPhantomConfig, chest_slice
from repro.data.phantom3d import chest_volume
from repro.data.registry import DATA_SOURCES
from repro.nn.data import Dataset
from repro.parallel.pool import parallel_map
from repro.parallel.seeding import derive_item_seeds
from repro.parallel.shm import ShmArray, shm_scope


@dataclass
class SyntheticSource:
    """A lazily generated stand-in for one clinical archive."""

    key: str
    num_scans: int
    covid_positive: bool
    size: int = 64
    num_slices: int = 32
    seed: int = 0

    @property
    def info(self):
        return DATA_SOURCES[self.key]

    def scan(self, index: int) -> np.ndarray:
        """Materialize scan ``index`` as a (D, H, W) HU volume."""
        if not 0 <= index < self.num_scans:
            raise IndexError(f"scan index {index} out of range [0, {self.num_scans})")
        rng = np.random.default_rng((self.seed, hash(self.key) & 0xFFFF, index))
        return chest_volume(
            size=self.size, num_slices=self.num_slices,
            covid=self.covid_positive, rng=rng,
        )

    def scans(self) -> List[np.ndarray]:
        return [self.scan(i) for i in range(self.num_scans)]

    def labels(self) -> np.ndarray:
        return np.full(self.num_scans, int(self.covid_positive))


def _make_source(key: str, num_scans: Optional[int], default: int, **kw) -> SyntheticSource:
    info = DATA_SOURCES[key]
    n = info.num_scans if num_scans is None else num_scans
    if num_scans is not None and num_scans < 1:
        raise ValueError("num_scans must be >= 1")
    return SyntheticSource(key=key, num_scans=n, covid_positive=info.covid_positive, **kw)


def mayo_clinic(num_scans: Optional[int] = 8, **kw) -> SyntheticSource:
    """Healthy scans with full/quarter-dose projection data."""
    return _make_source("mayo", num_scans, 8, **kw)


def bimcv(num_scans: Optional[int] = 8, **kw) -> SyntheticSource:
    """COVID-19 positive CT (Valencia)."""
    return _make_source("bimcv", num_scans, 34, **kw)


def midrc(num_scans: Optional[int] = 8, **kw) -> SyntheticSource:
    """COVID-19 positive CT (RSNA MIDRC)."""
    return _make_source("midrc", num_scans, 229, **kw)


def lidc(num_scans: Optional[int] = 8, **kw) -> SyntheticSource:
    """Healthy chest CT (LIDC)."""
    return _make_source("lidc", num_scans, 1301, **kw)


# ---------------------------------------------------------------------------
# Enhancement pairs (low-dose / full-dose), §3.1.2
# ---------------------------------------------------------------------------
def _render_enhancement_pair(
    item: Tuple[int, int],
    config: ChestPhantomConfig,
    geometry: FanBeamGeometry,
    blank_scan: float,
    pixel_size: float,
    covid_fraction: float,
    physics: bool,
    lows: ShmArray,
    fulls: ShmArray,
) -> int:
    """Simulate one (low, full) pair into the shared output arrays.

    One work item of the dataset-simulation fan-out.  All randomness
    comes from the per-item ``seed``, so the result is independent of
    which process runs it and of how items are chunked.
    """
    i, seed = item
    size = config.size
    slice_rng = np.random.default_rng(seed)
    img_hu, masks = chest_slice(config, slice_rng, return_masks=True)
    if slice_rng.random() < covid_fraction and masks["lungs"].any():
        from repro.data.lesions import add_lesion

        img_hu = add_lesion(img_hu, masks["lungs"], "ggo", rng=slice_rng)
    mu = hu_to_mu(img_hu)
    if physics:
        full_mu, low_mu, _ = simulate_low_dose_pair(
            mu, geometry, blank_scan=blank_scan, pixel_size=pixel_size, rng=slice_rng,
        )
        full_hu = mu_to_hu(full_mu)
        low_hu = mu_to_hu(low_mu)
    else:
        full_hu = img_hu
        # Image-space surrogate: white noise shaped by a radial
        # high-pass (the statistics FBP imparts to Poisson noise).
        noise = slice_rng.normal(0.0, 1.0, size=(size, size))
        f = np.fft.fft2(noise)
        fy = np.fft.fftfreq(size)[:, None]
        fx = np.fft.fftfreq(size)[None, :]
        shaped = np.real(np.fft.ifft2(f * np.sqrt(np.hypot(fy, fx))))
        shaped /= shaped.std() + 1e-12
        sigma_hu = 80.0 * np.sqrt(PAPER_BLANK_SCAN / blank_scan) / 10.0
        low_hu = img_hu + shaped * sigma_hu
    fulls.asarray()[i, 0] = normalize_unit(full_hu)
    lows.asarray()[i, 0] = normalize_unit(low_hu)
    return i


def make_enhancement_pairs(
    num_pairs: int,
    size: int = 32,
    blank_scan: float = 1.0e4,
    geometry: Optional[FanBeamGeometry] = None,
    covid_fraction: float = 0.5,
    physics: bool = True,
    rng=None,
    workers: Optional[int] = 1,
    bus=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build (low_dose, full_dose) slice pairs normalized to [0, 1].

    ``physics=True`` runs the complete §3.1.2 chain per slice (Siddon
    forward projection → Poisson counts at ``blank_scan`` photons →
    fan-beam FBP); ``physics=False`` is a fast surrogate that corrupts
    the image with FBP-shaped correlated noise directly in image space,
    for tests that need many pairs cheaply.

    ``workers=N`` fans the per-slice simulations across ``N`` processes
    (:mod:`repro.parallel`), the pair arrays living in shared memory so
    nothing is pickled.  The per-item seeds are drawn from ``rng`` up
    front exactly as the serial loop draws them, so the output is
    **bit-identical** for every worker count — including the historical
    ``workers=1`` path.  Pass ``bus`` (an
    :class:`~repro.telemetry.EventBus`) to record chunk spans.

    Returns arrays of shape (num_pairs, 1, size, size).
    """
    rng = rng or np.random.default_rng(0)
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    geometry = geometry or paper_geometry(scale=max(0.05, size / 512.0))
    # A chest spans ~350 mm regardless of grid resolution; physical
    # pixel size (not grid size) sets the attenuation path lengths and
    # hence the photon statistics.
    pixel_size = 350.0 / size
    config = ChestPhantomConfig(size=size, vessel_count=10)
    seeds = derive_item_seeds(rng, num_pairs)
    if physics:
        build_geometry_tables(geometry, size, pixel_size)  # before the fork
    with shm_scope() as scope:
        lows = scope.create((num_pairs, 1, size, size), np.float64)
        fulls = scope.create((num_pairs, 1, size, size), np.float64)
        render = partial(
            _render_enhancement_pair,
            config=config, geometry=geometry, blank_scan=blank_scan,
            pixel_size=pixel_size, covid_fraction=covid_fraction,
            physics=physics, lows=lows, fulls=fulls,
        )
        parallel_map(render, list(enumerate(seeds)), workers=workers,
                     bus=bus, source="repro.data.simulate")
        return lows.copy(), fulls.copy()


class EnhancementDataset(Dataset):
    """Paired low/full-dose dataset for training DDnet."""

    def __init__(self, lows: np.ndarray, fulls: np.ndarray):
        if lows.shape != fulls.shape or lows.ndim != 4:
            raise ValueError("expected matching (N, 1, H, W) arrays")
        self.lows = lows
        self.fulls = fulls

    @classmethod
    def generate(cls, num_pairs: int, **kw) -> "EnhancementDataset":
        return cls(*make_enhancement_pairs(num_pairs, **kw))

    def __len__(self) -> int:
        return len(self.lows)

    def __getitem__(self, idx: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.lows[idx], self.fulls[idx]


def fbp_shaped_noise(shape: Tuple[int, int], rng) -> np.ndarray:
    """Unit-variance noise with FBP statistics (radially high-pass).

    Poisson projection noise pushed through the ramp filter of FBP is
    spatially correlated with an ~|f| spectrum; this samples that field
    directly in image space for the fast (non-physics) degradation path.
    """
    size_y, size_x = shape
    noise = rng.normal(0.0, 1.0, size=shape)
    f = np.fft.fft2(noise)
    fy = np.fft.fftfreq(size_y)[:, None]
    fx = np.fft.fftfreq(size_x)[None, :]
    shaped = np.real(np.fft.ifft2(f * np.sqrt(np.hypot(fy, fx))))
    return shaped / (shaped.std() + 1e-12)


def add_lowdose_noise_hu(volume_hu: np.ndarray, sigma_hu: float = 80.0, rng=None) -> np.ndarray:
    """Degrade a (D, H, W) HU volume with low-dose FBP-shaped noise.

    The image-space surrogate for running every slice through the full
    §3.1.2 projection → Poisson → FBP chain; used where many volumes
    must be degraded cheaply (e.g. the Fig. 13 evaluation arms).
    """
    if volume_hu.ndim != 3:
        raise ValueError(f"expected (D, H, W); got shape {volume_hu.shape}")
    rng = rng or np.random.default_rng(0)
    out = volume_hu.astype(np.float64).copy()
    for z in range(out.shape[0]):
        out[z] += sigma_hu * fbp_shaped_noise(out.shape[1:], rng)
    return out


# ---------------------------------------------------------------------------
# Classification volumes (positive/negative 3D scans), §3.3.2
# ---------------------------------------------------------------------------
def make_classification_volumes(
    num_positive: int,
    num_negative: int,
    size: int = 32,
    num_slices: int = 16,
    rng=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Labeled 3D volumes: (volumes (N, 1, D, H, W) in HU, labels (N,)).

    Positives draw from the BIMCV/MIDRC-style COVID generator, negatives
    from the LIDC-style healthy generator, matching §3.3.2.
    """
    rng = rng or np.random.default_rng(0)
    n = num_positive + num_negative
    if n < 1:
        raise ValueError("need at least one volume")
    volumes = np.empty((n, 1, num_slices, size, size))
    labels = np.concatenate([np.ones(num_positive), np.zeros(num_negative)]).astype(int)
    for i in range(n):
        vol_rng = np.random.default_rng(rng.integers(0, 2**31))
        volumes[i, 0] = chest_volume(
            size=size, num_slices=num_slices, covid=bool(labels[i]), rng=vol_rng,
        )
    order = rng.permutation(n)
    return volumes[order], labels[order]


class ClassificationDataset(Dataset):
    """Labeled volume dataset with optional §3.3.1 augmentation."""

    def __init__(
        self,
        volumes: np.ndarray,
        labels: np.ndarray,
        transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        normalize: bool = True,
    ):
        if len(volumes) != len(labels):
            raise ValueError("volumes and labels must align")
        self.volumes = volumes
        self.labels = np.asarray(labels, dtype=np.float64)
        self.transform = transform
        self.normalize = normalize

    @classmethod
    def generate(cls, num_positive: int, num_negative: int, **kw) -> "ClassificationDataset":
        transform = kw.pop("transform", None)
        vols, labels = make_classification_volumes(num_positive, num_negative, **kw)
        return cls(vols, labels, transform=transform)

    def __len__(self) -> int:
        return len(self.volumes)

    def __getitem__(self, idx: int) -> Tuple[np.ndarray, np.ndarray]:
        vol = self.volumes[idx]
        if self.normalize:
            # Scale HU into roughly unit range for stable optimization;
            # Classification AI keeps the full HU dynamic (§3.3.1), so
            # this is a pure affine rescale, not a window clip.
            vol = vol / 1000.0
        if self.transform is not None:
            vol = self.transform(vol)
        return vol, np.float64(self.labels[idx])
