"""Tests for the scanner-variation stress suite (``repro.scenarios``)."""

import numpy as np
import pytest

from repro.ct import Sinogram, hu_to_mu, mu_to_hu, paper_geometry
from repro.ct.noise import PAPER_BLANK_SCAN
from repro.data import chest_volume
from repro.scenarios import (
    SCENARIOS,
    ScanScenario,
    get_scenario,
    reconstruct_volume,
    run_scenario_suite,
    run_scenarios_bench,
    scenario_names,
)


class TestScanScenario:
    def test_builtin_sweep_covers_all_axes(self):
        names = scenario_names()
        assert names[0] == "reference"
        assert len(names) == len(set(names))
        assert any(s.dose_fraction < 1.0 for s in SCENARIOS)
        assert any(s.geometry_scale < 1.0 for s in SCENARIOS)
        assert any(s.electronic_noise_hu > 0.0 for s in SCENARIOS)

    def test_reference_is_identity_protocol(self):
        ref = get_scenario("reference")
        assert ref.dose_fraction == 1.0
        assert ref.geometry_scale == 1.0
        assert ref.electronic_noise_hu == 0.0

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="reference"):
            get_scenario("ultra_low_dose")

    @pytest.mark.parametrize("kwargs", [
        dict(dose_fraction=0.0), dict(dose_fraction=1.5),
        dict(geometry_scale=0.0), dict(electronic_noise_hu=-1.0),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScanScenario("bad", "invalid", **kwargs)


class TestReconstruction:
    def test_deterministic_given_rng(self):
        vol = chest_volume(32, 2, covid=True, rng=np.random.default_rng(0))
        scenario = get_scenario("quarter_dose")
        a = reconstruct_volume(vol, scenario, np.random.default_rng(1))
        b = reconstruct_volume(vol, scenario, np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)

    def test_electronic_noise_raises_error_floor(self):
        vol = chest_volume(32, 2, covid=True, rng=np.random.default_rng(0))
        clean = reconstruct_volume(vol, get_scenario("reference"),
                                   np.random.default_rng(1))
        noisy = reconstruct_volume(vol, get_scenario("electronic_noise"),
                                   np.random.default_rng(1))
        assert np.mean((noisy - vol) ** 2) > np.mean((clean - vol) ** 2)


    @pytest.mark.parametrize("name", ["quarter_dose", "combined"])
    def test_volume_chain_equals_the_per_slice_loop(self, name):
        """One projection and one FBP per volume, with the generator drawn
        in the per-slice order (slice z's Poisson noise, then its
        electronic noise), give the per-slice chain's volume bit for bit;
        ``combined`` has electronic noise and a sparse-view geometry."""
        scenario = get_scenario(name)
        vol = chest_volume(32, 3, covid=True, rng=np.random.default_rng(0))
        size = vol.shape[1]
        geometry = paper_geometry(scale=max(0.05, size / 512.0) * scenario.geometry_scale)
        pixel_size = 350.0 / size
        rng = np.random.default_rng(7)
        expected = np.empty_like(vol)
        for z in range(vol.shape[0]):
            sino = Sinogram.from_image(hu_to_mu(vol[z]), geometry, pixel_size).with_noise(
                PAPER_BLANK_SCAN * scenario.dose_fraction, rng=rng)
            img = mu_to_hu(sino.reconstruct(size, "hann"))
            if scenario.electronic_noise_hu > 0.0:
                img = img + rng.normal(0.0, scenario.electronic_noise_hu, size=img.shape)
            expected[z] = img
        got = reconstruct_volume(vol, scenario, np.random.default_rng(7))
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


@pytest.fixture(scope="module")
def suite_scores():
    return run_scenario_suite(num_volumes=2, size=32, num_slices=4, seed=0)


class TestSuite:
    def test_scores_every_scenario(self, suite_scores):
        assert set(suite_scores) == set(scenario_names())
        for score in suite_scores.values():
            assert score.volumes == 2
            assert 0.0 <= score.lung_dice <= 1.0
            assert 0.0 <= score.severity_accuracy <= 1.0
            assert score.quantify_mae_pp >= 0.0

    def test_suite_is_deterministic(self, suite_scores):
        again = run_scenario_suite(num_volumes=2, size=32, num_slices=4,
                                   seed=0)
        assert {k: v.as_dict() for k, v in suite_scores.items()} == \
            {k: v.as_dict() for k, v in again.items()}

    def test_worst_case_degrades_reconstruction(self, suite_scores):
        assert suite_scores["combined"].psnr_db < \
            suite_scores["reference"].psnr_db
        assert suite_scores["sparse_view"].psnr_db < \
            suite_scores["reference"].psnr_db

    def test_reference_quantification_within_gate(self, suite_scores):
        from repro.scenarios import QUANTIFY_MAE_GATE_PP

        assert suite_scores["reference"].quantify_mae_pp <= \
            QUANTIFY_MAE_GATE_PP


class TestBench:
    def test_quick_bench_passes_gates(self):
        payload = run_scenarios_bench(quick=True)
        assert payload["gates_ok"]
        assert set(payload["gates"]) == {"quantify_error", "degradation",
                                         "kind_parity"}
        for mode in ("staged", "dag"):
            arm = payload["serve"][mode]
            assert arm["trace_parity"]
            assert set(arm["kinds"]) == {"diagnosis", "monitoring",
                                         "quantify"}
            for block in arm["kinds"].values():
                assert block["completed"] > 0
