"""CT physics substrate (§3.1.2 simulated low-dose data pipeline).

Implements the complete measurement chain the paper used to synthesize
its low-dose training data:

1. geometry definition — fan-beam (paper: SDD 1500 mm, SOD 1000 mm,
   720 views over 360°, 1024 detector pixels) and parallel-beam,
2. Siddon's exact ray-driven forward projection (vectorized over rays;
   the traversal is traced once per geometry and cached),
3. Beer's-law photon statistics with Poisson noise
   (``P_i ~ Poisson(b_i · e^{−l_i})``, blank scan ``b_i = 10⁶``),
4. filtered back projection (FBP) reconstruction with ramp/Hann filters
   for both geometries (per-pixel detector positions cached per geometry),
5. Hounsfield-unit conversions (60 keV monochromatic beam).
"""

from repro.ct.geometry import FanBeamGeometry, ParallelBeamGeometry, paper_geometry
from repro.ct.siddon import siddon_raycast
from repro.ct.projector import forward_project
from repro.ct.noise import add_poisson_noise, transmission_counts, counts_to_line_integrals
from repro.ct.fbp import fbp_reconstruct, ramp_filter_1d
from repro.ct.hounsfield import MU_WATER_60KEV, hu_to_mu, mu_to_hu, normalize_unit, denormalize_unit
from repro.ct.sinogram import Sinogram, simulate_dose_fraction_pair, simulate_low_dose_pair
from repro.ct.iterative import sart_reconstruct, siddon_backproject, subsample_views

__all__ = [
    "FanBeamGeometry", "ParallelBeamGeometry", "paper_geometry",
    "siddon_raycast", "forward_project",
    "add_poisson_noise", "transmission_counts", "counts_to_line_integrals",
    "fbp_reconstruct", "ramp_filter_1d",
    "MU_WATER_60KEV", "hu_to_mu", "mu_to_hu", "normalize_unit", "denormalize_unit",
    "Sinogram", "simulate_low_dose_pair", "simulate_dose_fraction_pair",
    "sart_reconstruct", "siddon_backproject", "subsample_views",
]
