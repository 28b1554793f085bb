"""Scanner-variation stress suite: seeded acquisition sweeps.

Real deployments (CoRSAI's multi-scanner study; the paper's §3.1.2
low-dose simulation) never see the pristine phantom the models were
calibrated on — dose protocols, gantry geometry, and detector
electronics vary per site.  This module sweeps those axes through the
:mod:`repro.ct` physics chain and measures what each variation does to
the downstream consumers:

1. **reconstruction fidelity** — PSNR of the FBP volume against the
   phantom ground truth,
2. **lung segmentation** — Dice of the thresholded lung mask against
   the mask extracted from the pristine volume,
3. **lesion quantification** — mean absolute percent-of-involvement
   error of :class:`repro.pipeline.QuantificationAI` against the
   phantom's exact lesion masks, plus severity-band accuracy.

Every scenario is a frozen :class:`ScanScenario`; the sweep is seeded
end to end (phantoms and photon noise), so two runs of
:func:`run_scenario_suite` with the same arguments produce identical
numbers — which is what lets ``repro bench scenarios`` gate on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.ct import (
    add_poisson_noise,
    fbp_reconstruct,
    forward_project,
    hu_to_mu,
    mu_to_hu,
    paper_geometry,
)
from repro.ct.noise import PAPER_BLANK_SCAN
from repro.data import chest_volume
from repro.pipeline.quantification import QuantificationAI, severity_band

__all__ = [
    "PSNR_RANGE_HU", "ScanScenario", "SCENARIOS", "ScenarioScore",
    "get_scenario", "scenario_names", "reconstruct_volume",
    "run_scenario_suite",
]

#: Dynamic range used for PSNR over HU volumes (air −1000 → bone +1000).
PSNR_RANGE_HU = 2000.0


@dataclass(frozen=True)
class ScanScenario:
    """One acquisition protocol to stress the pipeline with.

    ``dose_fraction`` scales the paper's blank scan (10⁶ photons/ray)
    before Poisson corruption; ``geometry_scale`` multiplies the
    view/detector counts of the (already test-scaled) fan-beam geometry
    — below 1.0 it models sparse-view acquisition; ``electronic_noise_hu``
    is additive zero-mean Gaussian detector/electronics noise applied
    to the reconstructed HU volume.
    """

    name: str
    description: str
    dose_fraction: float = 1.0
    geometry_scale: float = 1.0
    electronic_noise_hu: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.dose_fraction <= 1.0:
            raise ValueError(f"dose_fraction must be in (0, 1]; "
                             f"got {self.dose_fraction}")
        if not 0.0 < self.geometry_scale <= 1.0:
            raise ValueError(f"geometry_scale must be in (0, 1]; "
                             f"got {self.geometry_scale}")
        if self.electronic_noise_hu < 0.0:
            raise ValueError(f"electronic_noise_hu must be >= 0; "
                             f"got {self.electronic_noise_hu}")


#: The stress sweep: the paper's reference protocol plus dose,
#: geometry, and electronics variations, singly and combined.
SCENARIOS: Tuple[ScanScenario, ...] = (
    ScanScenario("reference", "paper protocol: full dose, full geometry"),
    ScanScenario("half_dose", "50% tube current", dose_fraction=0.5),
    ScanScenario("quarter_dose", "25% tube current", dose_fraction=0.25),
    ScanScenario("tenth_dose", "10% tube current (screening protocol)",
                 dose_fraction=0.1),
    ScanScenario("sparse_view", "half the views/detectors (fast gantry)",
                 geometry_scale=0.5),
    ScanScenario("electronic_noise", "40 HU detector electronics noise",
                 electronic_noise_hu=40.0),
    ScanScenario("combined", "quarter dose + sparse view + electronics",
                 dose_fraction=0.25, geometry_scale=0.5,
                 electronic_noise_hu=40.0),
)


def scenario_names() -> Tuple[str, ...]:
    """Names of the built-in stress scenarios, sweep order."""
    return tuple(s.name for s in SCENARIOS)


def get_scenario(name: str) -> ScanScenario:
    """Look up a built-in scenario by name."""
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise ValueError(f"unknown scenario {name!r}; "
                     f"valid scenarios: {scenario_names()}")


def reconstruct_volume(volume_hu: np.ndarray, scenario: ScanScenario,
                       rng) -> np.ndarray:
    """Push a phantom HU volume through the scenario's scanner.

    HU → attenuation, one Siddon forward projection of the whole volume
    under the scenario's geometry, Beer's-law Poisson noise at the
    scenario's dose, one Hann-filtered FBP back to HU, plus the
    scenario's electronic noise floor.  The generator draws slice by
    slice, slice ``z``'s Poisson noise then its electronic noise, so
    every slice equals the single-slice chain bit for bit.
    Deterministic given ``rng``.
    """
    num_slices, size, _ = volume_hu.shape
    base_scale = max(0.05, size / 512.0)
    geometry = paper_geometry(scale=base_scale * scenario.geometry_scale)
    pixel_size = 350.0 / size
    blank = PAPER_BLANK_SCAN * scenario.dose_fraction
    sinograms = forward_project(hu_to_mu(volume_hu), geometry, pixel_size)
    electronic = None
    if scenario.electronic_noise_hu > 0.0:
        electronic = np.empty((num_slices, size, size))
    for z in range(num_slices):
        sinograms[z] = add_poisson_noise(sinograms[z], blank, rng=rng)
        if electronic is not None:
            electronic[z] = rng.normal(0.0, scenario.electronic_noise_hu,
                                       size=(size, size))
    recon = mu_to_hu(fbp_reconstruct(sinograms, geometry, size, pixel_size, "hann"))
    if electronic is not None:
        recon += electronic
    return recon.astype(volume_hu.dtype, copy=False)


def _psnr_hu(recon: np.ndarray, truth: np.ndarray) -> float:
    mse = float(np.mean((recon - truth) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * float(np.log10(PSNR_RANGE_HU ** 2 / mse))


def _dice(a: np.ndarray, b: np.ndarray) -> float:
    total = int(np.count_nonzero(a)) + int(np.count_nonzero(b))
    if total == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(a & b)) / total


@dataclass(frozen=True)
class ScenarioScore:
    """Aggregate degradation metrics for one scenario over the cohort."""

    name: str
    volumes: int
    psnr_db: float
    lung_dice: float
    quantify_mae_pp: float
    severity_accuracy: float
    gt_involvement_mean: float
    pred_involvement_mean: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "volumes": self.volumes,
            "psnr_db": round(self.psnr_db, 4),
            "lung_dice": round(self.lung_dice, 4),
            "quantify_mae_pp": round(self.quantify_mae_pp, 4),
            "severity_accuracy": round(self.severity_accuracy, 4),
            "gt_involvement_mean": round(self.gt_involvement_mean, 4),
            "pred_involvement_mean": round(self.pred_involvement_mean, 4),
        }


def run_scenario_suite(
    scenarios: Sequence[ScanScenario] = SCENARIOS,
    num_volumes: int = 3,
    size: int = 32,
    num_slices: int = 4,
    seed: int = 0,
    quantifier: Optional[QuantificationAI] = None,
) -> Dict[str, ScenarioScore]:
    """Score every scenario on a shared cohort of lesion phantoms.

    The same ``num_volumes`` COVID phantoms (and their exact lesion
    masks) feed every scenario — a paired comparison, so per-scenario
    deltas are acquisition effects, not cohort luck.  Ground-truth
    involvement is measured on the pristine volume; each scenario's
    reconstruction is then quantified blind and compared.
    """
    if num_volumes < 1:
        raise ValueError("need num_volumes >= 1")
    quantifier = quantifier or QuantificationAI()
    cohort = []
    for vi in range(num_volumes):
        vol, lesion_mask = chest_volume(
            size, num_slices, covid=True,
            rng=np.random.default_rng([seed, vi]),
            return_lesion_mask=True)
        gt_lung = quantifier.lung_mask(vol)
        lung_voxels = max(1, int(np.count_nonzero(gt_lung)))
        gt_pct = 100.0 * int(np.count_nonzero(lesion_mask & gt_lung)) / lung_voxels
        cohort.append((vol, gt_lung, gt_pct))

    scores: Dict[str, ScenarioScore] = {}
    for si, scenario in enumerate(scenarios):
        psnrs, dices, errors, preds, gts, hits = [], [], [], [], [], 0
        for vi, (vol, gt_lung, gt_pct) in enumerate(cohort):
            # One independent, reproducible noise stream per
            # (scenario, volume) cell of the sweep.
            rng = np.random.default_rng([seed, 1 + si, vi])
            recon = reconstruct_volume(vol, scenario, rng)
            result = quantifier.quantify(recon)
            psnrs.append(_psnr_hu(recon, vol))
            dices.append(_dice(quantifier.lung_mask(recon), gt_lung))
            errors.append(abs(result.percent_involvement - gt_pct))
            preds.append(result.percent_involvement)
            gts.append(gt_pct)
            if result.severity == severity_band(gt_pct):
                hits += 1
        scores[scenario.name] = ScenarioScore(
            name=scenario.name,
            volumes=num_volumes,
            psnr_db=float(np.mean(psnrs)),
            lung_dice=float(np.mean(dices)),
            quantify_mae_pp=float(np.mean(errors)),
            severity_accuracy=hits / num_volumes,
            gt_involvement_mean=float(np.mean(gts)),
            pred_involvement_mean=float(np.mean(preds)),
        )
    return scores
