"""Figure 8 — low-dose CT image simulation (sinogram + FBP).

Runs the complete §3.1.2 chain on a phantom slice at the paper's
geometry (proportionally scaled): Siddon forward projection over 360°,
Beer's-law Poisson noise at the blank-scan level, FBP reconstruction of
full-dose and low-dose images — and reports sinogram/recon statistics.
"""

import numpy as np

from conftest import save_text
from repro.ct import hu_to_mu, mu_to_hu, paper_geometry, simulate_low_dose_pair
from repro.data import chest_slice
from repro.data.phantom import ChestPhantomConfig
from repro.metrics import ssim
from repro.report import format_table

SIZE = 48


def test_fig8_lowdose_simulation(benchmark, results_dir):
    rng = np.random.default_rng(3)
    img_hu = chest_slice(ChestPhantomConfig(size=SIZE), rng)
    mu = hu_to_mu(img_hu)
    geometry = paper_geometry(scale=SIZE / 512.0)
    pixel_size = 350.0 / SIZE

    def simulate():
        return simulate_low_dose_pair(
            mu, geometry, blank_scan=200.0, pixel_size=pixel_size,
            rng=np.random.default_rng(11),
        )

    full_mu, low_mu, noisy = benchmark.pedantic(simulate, rounds=1, iterations=1)
    full_hu, low_hu = mu_to_hu(full_mu), mu_to_hu(low_mu)
    s_full = ssim((full_hu + 1400) / 1600, (img_hu + 1400) / 1600, window_size=7)
    s_low = ssim((low_hu + 1400) / 1600, (img_hu + 1400) / 1600, window_size=7)

    rows = [
        {"Quantity": "Geometry", "Value": f"SDD 1500mm, SOD 1000mm, {geometry.num_views} views, "
                                          f"{geometry.num_detectors} detectors (paper scaled x{SIZE}/512)"},
        {"Quantity": "Sinogram shape", "Value": str(noisy.data.shape)},
        {"Quantity": "Max line integral", "Value": f"{noisy.data.max():.2f}"},
        {"Quantity": "SSIM(full-dose FBP, truth)", "Value": f"{s_full:.3f}"},
        {"Quantity": "SSIM(low-dose FBP, truth)", "Value": f"{s_low:.3f}"},
        {"Quantity": "Low-dose extra noise (HU std)",
         "Value": f"{(low_hu - full_hu).std():.1f}"},
    ]
    text = format_table(rows, title="Fig. 8 — Low X-ray dose CT simulation (Siddon + Poisson + FBP)")
    save_text(results_dir, "fig8_lowdose.txt", text)

    assert noisy.data.shape == (geometry.num_views, geometry.num_detectors)
    assert s_low < s_full                  # the dose reduction visibly degrades
    assert (low_hu - full_hu).std() > 10.0  # streaking/noise present in HU


def test_fig8_lowdose_volume(benchmark):
    """Volume-scale §3.1.2 chain, in one process.

    Times :func:`simulate_low_dose_volume` (one projection of the
    volume, per-slice Poisson noise, one FBP of both arms) and asserts
    that each slice equals :func:`simulate_low_dose_pair` on it bit for
    bit, drawing from that slice's own seed.
    """
    from repro.data import simulate_low_dose_volume
    from repro.parallel import spawn_seeds

    rng = np.random.default_rng(3)
    volume_mu = np.stack([
        hu_to_mu(chest_slice(ChestPhantomConfig(size=SIZE), rng))
        for _ in range(4)
    ])
    geometry = paper_geometry(scale=SIZE / 512.0)
    pixel_size = 350.0 / SIZE

    def simulate():
        return simulate_low_dose_volume(
            volume_mu, geometry, blank_scan=200.0, pixel_size=pixel_size, seed=11)

    full, low = benchmark.pedantic(simulate, rounds=1, iterations=1)
    for z, seed in enumerate(spawn_seeds(11, len(volume_mu))):
        full_z, low_z, _ = simulate_low_dose_pair(
            volume_mu[z], geometry, blank_scan=200.0, pixel_size=pixel_size,
            rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(full[z], full_z)
        np.testing.assert_array_equal(low[z], low_z)
