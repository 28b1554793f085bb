"""Shared fixtures for the benchmark harness.

Every bench regenerates one paper table or figure (see DESIGN.md §4).
Expensive artifacts — trained networks, generated datasets — are built
once per session here and shared.  Each bench prints its reproduced
table/figure (visible with ``pytest -s``) and writes it under
``benchmarks/results/``.
"""

import os
from dataclasses import dataclass
from typing import List

import numpy as np
import pytest

from repro.ct.hounsfield import denormalize_unit, normalize_unit
from repro.data import make_classification_volumes, make_enhancement_pairs
from repro.data.datasets import (
    ClassificationDataset,
    EnhancementDataset,
    add_lowdose_noise_hu,
)
from repro.data.phantom import ChestPhantomConfig, chest_slice
from repro.hetero import PerfModel
from repro.models import DDnet, DenseNet3D
from repro.pipeline import ClassificationAI, EnhancementAI, SegmentationAI
from repro.pipeline.training import TrainingHistory

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Reduced-scale knobs shared by the training benches (DESIGN.md §5).
ENH_SIZE = 32
ENH_BLANK_SCAN = 60.0       # photons/ray for the physics-based pairs
DIAG_SIZE = 32              # in-plane size of diagnosis volumes
DIAG_SLICES = 16
DIAG_NOISE_SIGMA = 100.0    # HU std of the low-dose surrogate noise


def tiny_ddnet(seed=0):
    """The DDnet architecture at CPU-affordable width/size."""
    return DDnet(base_channels=4, growth=4, num_blocks=2, layers_per_block=2,
                 dense_kernel=3, deconv_kernel=3, init_std=0.01,
                 rng=np.random.default_rng(seed))


def tiny_densenet(seed=0):
    return DenseNet3D(block_layers=(1, 1, 1, 1), growth=4, init_features=4,
                      rng=np.random.default_rng(seed))


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def perf_model():
    return PerfModel()


# ---------------------------------------------------------------------------
# Enhancement artifacts: DDnet trained on *physics* low/full-dose pairs
# ---------------------------------------------------------------------------
@dataclass
class EnhancementArtifacts:
    ai: EnhancementAI
    train_lows: np.ndarray
    train_fulls: np.ndarray
    test_lows: np.ndarray
    test_fulls: np.ndarray


@pytest.fixture(scope="session")
def trained_enhancement():
    """DDnet trained on Siddon→Poisson→FBP low/full-dose pairs."""
    rng = np.random.default_rng(42)
    lows, fulls = make_enhancement_pairs(24, size=ENH_SIZE, blank_scan=ENH_BLANK_SCAN,
                                         rng=rng)
    ai = EnhancementAI(model=tiny_ddnet(), lr=2e-3, msssim_levels=1, msssim_window=5)
    ai.train(EnhancementDataset(lows[:18], fulls[:18]), epochs=20, batch_size=2, seed=1)
    return EnhancementArtifacts(ai, lows[:18], fulls[:18], lows[18:], fulls[18:])


# ---------------------------------------------------------------------------
# Diagnosis artifacts: the full §5.2 evaluation setup
# ---------------------------------------------------------------------------
@dataclass
class DiagnosisArtifacts:
    """Everything the §5.2 accuracy benches need.

    The classifier is trained on *segmented clean* volumes (the Fig. 4
    workflow); evaluation runs three arms on held-out volumes —
    clean, low-dose noisy, and Enhancement-AI-enhanced noisy — so the
    Fig. 13 / Table 9 comparison of original vs enhanced is direct.
    """

    classification: ClassificationAI
    enhancement: EnhancementAI
    segmentation: SegmentationAI
    cls_history: TrainingHistory
    enh_history: TrainingHistory
    test_labels: np.ndarray
    test_clean: List[np.ndarray]
    test_noisy: List[np.ndarray]

    def enhance_volume(self, vol_hu: np.ndarray) -> np.ndarray:
        return denormalize_unit(self.enhancement.enhance_volume(normalize_unit(vol_hu)))

    def score(self, vol_hu: np.ndarray) -> float:
        segmented, _ = self.segmentation.apply(vol_hu)
        return self.classification.predict_proba(segmented)

    def score_arm(self, arm: str) -> np.ndarray:
        if arm == "clean":
            vols = self.test_clean
        elif arm == "noisy":
            vols = self.test_noisy
        elif arm == "enhanced":
            vols = [self.enhance_volume(v) for v in self.test_noisy]
        else:
            raise ValueError(arm)
        return np.array([self.score(v) for v in vols])


@pytest.fixture(scope="session")
def diagnosis():
    seg = SegmentationAI()
    # --- train Classification AI on segmented clean volumes ------------
    vols, labels = make_classification_volumes(20, 20, size=DIAG_SIZE,
                                               num_slices=DIAG_SLICES,
                                               rng=np.random.default_rng(7))
    segmented = np.stack([seg.apply(v[0])[0] for v in vols])[:, None]
    cls = ClassificationAI(model=tiny_densenet(), lr=3e-3)
    cls_hist = cls.train(ClassificationDataset(segmented, labels),
                         epochs=12, batch_size=4, seed=2)
    # --- train Enhancement AI on matched-degradation slice pairs -------
    n_pairs = 24
    lows = np.empty((n_pairs, 1, DIAG_SIZE, DIAG_SIZE))
    fulls = np.empty_like(lows)
    prng = np.random.default_rng(5)
    for i in range(n_pairs):
        img = chest_slice(ChestPhantomConfig(size=DIAG_SIZE, vessel_count=8),
                          np.random.default_rng(prng.integers(2**31)))
        deg = add_lowdose_noise_hu(img[None], DIAG_NOISE_SIGMA,
                                   np.random.default_rng(prng.integers(2**31)))[0]
        fulls[i, 0] = normalize_unit(img)
        lows[i, 0] = normalize_unit(deg)
    enh = EnhancementAI(model=tiny_ddnet(), lr=2e-3, msssim_levels=1, msssim_window=5)
    enh_hist = enh.train(EnhancementDataset(lows, fulls), epochs=20, batch_size=2, seed=1)
    # --- held-out evaluation volumes ------------------------------------
    tvols, tlabels = make_classification_volumes(14, 14, size=DIAG_SIZE,
                                                 num_slices=DIAG_SLICES,
                                                 rng=np.random.default_rng(99))
    clean = [v[0] for v in tvols]
    noisy = [add_lowdose_noise_hu(v, DIAG_NOISE_SIGMA, np.random.default_rng(1000 + i))
             for i, v in enumerate(clean)]
    return DiagnosisArtifacts(
        classification=cls, enhancement=enh, segmentation=seg,
        cls_history=cls_hist, enh_history=enh_hist,
        test_labels=tlabels, test_clean=clean, test_noisy=noisy,
    )


def save_text(results_dir: str, name: str, text: str) -> None:
    with open(os.path.join(results_dir, name), "w") as f:
        f.write(text if text.endswith("\n") else text + "\n")
    print()
    print(text)
