"""Tests for the cached scan-geometry tables behind projection and FBP."""

import numpy as np
import pytest

from repro.ct import (
    FanBeamGeometry,
    ParallelBeamGeometry,
    fbp_reconstruct,
    forward_project,
    paper_geometry,
    sart_reconstruct,
    siddon_raycast,
)
from repro.ct import fbp, projector
from repro.ct.projector import projection_tables, ray_extent
from repro.ct.sinogram import build_geometry_tables
from repro.data import simulate_low_dose_volume

GEOMETRIES = [
    FanBeamGeometry(num_views=24, num_detectors=40, detector_spacing=2.0),
    ParallelBeamGeometry(num_views=20, num_detectors=37, detector_spacing=1.5),
]


def phantom(n=24, seed=0):
    rng = np.random.default_rng(seed)
    return 0.02 * rng.random((n, n))


def clear_caches():
    projector._projection_tables_cached.cache_clear()
    fbp._backprojection_cached.cache_clear()


@pytest.mark.parametrize("geo", GEOMETRIES, ids=["fan", "parallel"])
@pytest.mark.parametrize("shape", [(24, 24), (20, 28)])
def test_forward_project_equals_per_view_raycast(geo, shape):
    img = np.random.default_rng(3).random(shape)
    pixel_size = 1.7
    extent = ray_extent(shape, pixel_size)
    expected = np.stack([siddon_raycast(img, *geo.rays(v, extent), pixel_size)
                         for v in range(geo.num_views)])
    assert np.array_equal(forward_project(img, geo, pixel_size), expected)


@pytest.mark.parametrize("geo", GEOMETRIES, ids=["fan", "parallel"])
def test_cached_tables_are_read_only(geo):
    tables = projection_tables(geo, (24, 24), 1.5)
    for table in tables:
        for array in table:
            assert not array.flags.writeable
    with pytest.raises(ValueError):
        tables[0].weight[0, 0] = 1.0
    back = fbp.backprojection_table(geo, 24, 1.5)
    for array in back:
        assert array is None or not array.flags.writeable


def test_tables_are_keyed_by_pixel_size_and_grid():
    geo = GEOMETRIES[0]
    base = projection_tables(geo, (24, 24), 1.0)
    assert projection_tables(geo, (24, 24), 1.0) is base
    others = [projection_tables(geo, (24, 24), 2.0),
              projection_tables(geo, (20, 24), 1.0),
              projection_tables(geo, (24, 20), 1.0)]
    for other in others:
        assert other is not base
    assert not np.array_equal(others[0][0].weight, base[0].weight)
    assert others[1][0].index.shape != base[0].index.shape
    back = fbp.backprojection_table(geo, 24, 1.0)
    assert fbp.backprojection_table(geo, 24, 1.0) is back
    assert fbp.backprojection_table(geo, 24, 2.0) is not back
    assert fbp.backprojection_table(geo, 20, 1.0).lo.shape[1:] == (20, 20)
    assert not np.array_equal(fbp.backprojection_table(geo, 24, 2.0).frac, back.frac)


@pytest.mark.parametrize("geo", GEOMETRIES, ids=["fan", "parallel"])
def test_rebuilt_tables_are_bit_identical(geo):
    img = phantom()
    sino = forward_project(img, geo, 1.5)
    rec = fbp_reconstruct(sino, geo, 24, 1.5, "hann")
    sart = sart_reconstruct(sino, geo, 24, iterations=2, pixel_size=1.5)
    clear_caches()
    assert projector._projection_tables_cached.cache_info().currsize == 0
    assert np.array_equal(forward_project(img, geo, 1.5), sino)
    assert np.array_equal(fbp_reconstruct(sino, geo, 24, 1.5, "hann"), rec)
    assert np.array_equal(sart_reconstruct(sino, geo, 24, iterations=2, pixel_size=1.5), sart)


def test_table_bytes_at_benchmark_geometry():
    geo = paper_geometry(64 / 512)
    build_geometry_tables(geo, 64, 350 / 64)
    tables = projection_tables(geo, (64, 64), 350 / 64)
    # (detectors, nx + ny + 2) int32 indices + float64 weights.
    assert tables[0].index.shape == (128, 130)
    assert tables[0].index.dtype == np.int32
    back = fbp.backprojection_table(geo, 64, 350 / 64)
    total = (sum(a.nbytes for table in tables for a in table)
             + sum(a.nbytes for a in back))
    assert total == 25_816_320  # the figure docs/performance.md states


def test_volume_simulation_builds_tables_before_forking():
    geo = ParallelBeamGeometry(num_views=12, num_detectors=25)
    volume = np.stack([phantom(16, seed) for seed in range(3)])
    clear_caches()
    simulate_low_dose_volume(volume, geo, pixel_size=1.25, seed=2, workers=2)
    # The workers fill no cache in this process; the parent built both.
    assert projector._projection_tables_cached.cache_info().currsize == 1
    assert fbp._backprojection_cached.cache_info().currsize == 1
