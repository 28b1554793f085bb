"""Tests for iterative reconstruction (SART) and sparse-view utilities."""

import numpy as np
import pytest

from repro.ct import (
    fbp_reconstruct,
    forward_project,
    sart_reconstruct,
    siddon_backproject,
    siddon_raycast,
    subsample_views,
)
from repro.ct.geometry import FanBeamGeometry, ParallelBeamGeometry


def disk(n=32, value=0.03):
    ys, xs = np.mgrid[0:n, 0:n]
    r = np.hypot(xs - n / 2 + 0.5, ys - n / 2 + 0.5)
    img = np.where(r < n * 0.35, value, 0.0)
    img[r < n * 0.12] = value * 1.8
    return img


class TestAdjoint:
    def test_exact_adjointness(self, rng):
        """<A x, y> == <x, A^T y> to machine precision."""
        img = rng.random((12, 12))
        starts = rng.uniform(-30, -20, (15, 2))
        ends = rng.uniform(20, 30, (15, 2))
        y = rng.random(15)
        lhs = (siddon_raycast(img, starts, ends) * y).sum()
        rhs = (img * siddon_backproject(y, starts, ends, (12, 12))).sum()
        assert np.isclose(lhs, rhs, rtol=1e-10)

    def test_adjoint_with_pixel_size(self, rng):
        img = rng.random((8, 8))
        starts = rng.uniform(-40, -30, (6, 2))
        ends = rng.uniform(30, 40, (6, 2))
        y = rng.random(6)
        lhs = (siddon_raycast(img, starts, ends, 2.5) * y).sum()
        rhs = (img * siddon_backproject(y, starts, ends, (8, 8), 2.5)).sum()
        assert np.isclose(lhs, rhs, rtol=1e-10)

    @pytest.mark.parametrize("pixel_size", [1.0, 1.5])
    def test_adjoint_every_view_of_parallel_geometry(self, rng, pixel_size):
        # The 0° and 90° views are axis-parallel rays.
        geo = ParallelBeamGeometry(num_views=4, num_detectors=17)
        img = rng.random((12, 12))
        extent = 0.75 * pixel_size * float(np.hypot(12, 12))
        for view in range(geo.num_views):
            starts, ends = geo.rays(view, extent)
            y = rng.random(geo.num_detectors)
            lhs = (siddon_raycast(img, starts, ends, pixel_size) * y).sum()
            rhs = (img * siddon_backproject(y, starts, ends, (12, 12), pixel_size)).sum()
            assert lhs > 0.0
            assert np.isclose(lhs, rhs, rtol=1e-10), view

    def test_missing_rays_deposit_nothing(self):
        out = siddon_backproject([5.0], [[-100.0, 50.0]], [[100.0, 50.0]], (8, 8))
        assert np.all(out == 0.0)


class TestSART:
    @pytest.fixture(scope="class")
    def setup(self):
        truth = disk(32)
        geo = ParallelBeamGeometry(num_views=48, num_detectors=65)
        sino = forward_project(truth, geo)
        return truth, geo, sino

    def test_converges_toward_truth(self, setup):
        truth, geo, sino = setup
        rec = sart_reconstruct(sino, geo, 32, iterations=6, relaxation=0.6)
        assert np.abs(rec - truth).mean() < 0.002

    def test_beats_fbp_at_few_views(self, setup):
        truth, _, _ = setup
        sparse = ParallelBeamGeometry(num_views=10, num_detectors=65)
        sino = forward_project(truth, sparse)
        fbp = fbp_reconstruct(sino, sparse, 32)
        sart = sart_reconstruct(sino, sparse, 32, iterations=10, relaxation=0.6)
        assert np.abs(sart - truth).mean() < np.abs(fbp - truth).mean()

    def test_error_decreases_with_iterations(self, setup):
        truth, geo, sino = setup
        e1 = np.abs(sart_reconstruct(sino, geo, 32, iterations=1) - truth).mean()
        e5 = np.abs(sart_reconstruct(sino, geo, 32, iterations=5) - truth).mean()
        assert e5 < e1

    def test_nonnegativity_constraint(self, setup):
        truth, geo, sino = setup
        rec = sart_reconstruct(sino, geo, 32, iterations=3, nonnegativity=True)
        assert rec.min() >= 0.0

    def test_warm_start(self, setup):
        truth, geo, sino = setup
        warm = sart_reconstruct(sino, geo, 32, iterations=2, initial=truth.copy())
        cold = sart_reconstruct(sino, geo, 32, iterations=2)
        assert np.abs(warm - truth).mean() < np.abs(cold - truth).mean()

    def test_shape_validation(self, setup):
        _, geo, _ = setup
        with pytest.raises(ValueError):
            sart_reconstruct(np.zeros((3, 3)), geo, 32)

    def test_iterations_validation(self, setup):
        _, geo, sino = setup
        with pytest.raises(ValueError):
            sart_reconstruct(sino, geo, 32, iterations=0)

    def test_fan_beam_geometry_supported(self):
        truth = disk(24)
        geo = FanBeamGeometry(num_views=60, num_detectors=96, detector_spacing=2.0)
        sino = forward_project(truth, geo)
        rec = sart_reconstruct(sino, geo, 24, iterations=5, relaxation=0.6)
        assert np.abs(rec - truth).mean() < 0.004


class TestSparseView:
    def test_subsample_preserves_range(self):
        geo = ParallelBeamGeometry(num_views=180, num_detectors=65)
        sparse = subsample_views(geo, 6)
        assert sparse.num_views == 30
        assert sparse.angular_range == geo.angular_range
        assert sparse.num_detectors == geo.num_detectors

    def test_factor_validation(self):
        geo = ParallelBeamGeometry()
        with pytest.raises(ValueError):
            subsample_views(geo, 0)

    def test_sparse_view_fbp_degrades(self):
        """Fewer views -> FBP streaking -> larger error (DDnet's original
        motivation, Zhang et al. 2018)."""
        truth = disk(32)
        full = ParallelBeamGeometry(num_views=96, num_detectors=65)
        sparse = subsample_views(full, 12)
        err_full = np.abs(fbp_reconstruct(forward_project(truth, full), full, 32) - truth).mean()
        err_sparse = np.abs(fbp_reconstruct(forward_project(truth, sparse), sparse, 32) - truth).mean()
        assert err_sparse > 1.5 * err_full
