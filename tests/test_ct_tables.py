"""Tests for the cached scan-geometry operators behind projection and FBP.

The oracle is the per-view code the operators replaced: a gather-reduce
over each view's Siddon ray table for the projection, and per-view
linear interpolation summed over views (after a complex-FFT ramp
filter) for FBP.  A CSR row sums in a different order, so the operators
match it to rounding, not bit for bit.
"""

import numpy as np
import pytest

from repro.ct import (
    FanBeamGeometry,
    ParallelBeamGeometry,
    fbp_reconstruct,
    forward_project,
    paper_geometry,
    ramp_filter_1d,
    sart_reconstruct,
    siddon_backproject,
    siddon_raycast,
    simulate_dose_fraction_pair,
    simulate_low_dose_pair,
)
from repro.ct import fbp, projector
from repro.ct.fbp import backprojection_operator
from repro.ct.projector import projection_operator, ray_extent
from repro.ct.siddon import siddon_rays
from repro.data import simulate_dose_fraction_volume, simulate_low_dose_volume
from repro.parallel.seeding import spawn_seeds

GEOMETRIES = [
    FanBeamGeometry(num_views=24, num_detectors=40, detector_spacing=2.0),
    ParallelBeamGeometry(num_views=20, num_detectors=37, detector_spacing=1.5),
]
IDS = ["fan", "parallel"]


def phantom(n=24, seed=0):
    rng = np.random.default_rng(seed)
    return 0.02 * rng.random((n, n))


def clear_caches():
    projector._projection_cached.cache_clear()
    fbp._backprojection_cached.cache_clear()


def assert_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


# ---------------------------------------------------------------------------
# The per-view oracle
# ---------------------------------------------------------------------------
def ray_integrals(image, table):
    """Line integrals of ``image`` along one view's rays: gather, reduce."""
    values = np.take(image.ravel(), table.index)
    values *= table.weight
    values *= table.length[:, None]
    integrals = values.sum(axis=1)
    integrals[table.dead] = 0.0
    return integrals


def oracle_project(image, geo, pixel_size):
    extent = ray_extent(image.shape, pixel_size)
    return np.stack([
        ray_integrals(image, siddon_rays(*geo.rays(v, extent), image.shape, pixel_size))
        for v in range(geo.num_views)])


def detector_positions(geo, view, n, pixel_size):
    """Lower bin, its interpolation weight, validity and U² of every pixel."""
    half = (n - 1) / 2.0
    ys, xs = np.mgrid[0:n, 0:n]
    x = (xs - half) * pixel_size
    y = (ys - half) * pixel_size
    beta = geo.angles[view]
    det0, spacing, u2 = geo.detector_coords[0], geo.detector_spacing, None
    if isinstance(geo, ParallelBeamGeometry):
        coords = -x * np.sin(beta) + y * np.cos(beta)
    else:
        sod, sdd = geo.source_to_isocenter, geo.source_to_detector
        det0, spacing = det0 * (sod / sdd), spacing * (sod / sdd)
        s = x * np.cos(beta) + y * np.sin(beta)
        t = -x * np.sin(beta) + y * np.cos(beta)
        U = (sod - s) / sod
        coords, u2 = t / U, U * U
    idx = (coords - det0) / spacing
    bins = np.floor(idx).astype(np.int64)
    valid = (bins >= 0) & (bins < geo.num_detectors - 1)
    return np.clip(bins, 0, geo.num_detectors - 2), idx - bins, valid, u2


def oracle_backproject(filtered, geo, n, pixel_size):
    recon = np.zeros((n, n))
    for view in range(geo.num_views):
        lo, frac, valid, u2 = detector_positions(geo, view, n, pixel_size)
        proj = filtered[view]
        vals = np.take(proj, lo) * (1.0 - frac) + np.take(proj[1:], lo) * frac
        vals = np.where(valid, vals, 0.0)
        recon += vals if u2 is None else vals / u2
    recon *= geo.angular_range / geo.num_views
    if geo.angular_range > 1.5 * np.pi:
        recon *= 0.5
    return recon


def oracle_fbp(sino, geo, n, pixel_size, window):
    spacing = geo.detector_spacing
    if isinstance(geo, FanBeamGeometry):
        sod, sdd = geo.source_to_isocenter, geo.source_to_detector
        iso = geo.detector_coords * (sod / sdd)
        spacing = spacing * (sod / sdd)
        sino = sino * (sod / np.sqrt(sod**2 + iso**2))[None, :]
    H = ramp_filter_1d(sino.shape[1], spacing, window)
    padded = np.zeros((sino.shape[0], H.shape[0]))
    padded[:, :sino.shape[1]] = sino
    filtered = np.real(np.fft.ifft(np.fft.fft(padded, axis=1) * H[None, :], axis=1))
    return oracle_backproject(filtered[:, :sino.shape[1]] * spacing, geo, n, pixel_size)


# ---------------------------------------------------------------------------
# Operators against the oracle
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("geo", GEOMETRIES, ids=IDS)
@pytest.mark.parametrize("shape", [(24, 24), (25, 25), (20, 27)])
def test_projection_operator_matches_the_per_view_gather(geo, shape):
    img = np.random.default_rng(3).random(shape)
    assert_close(forward_project(img, geo, 1.7), oracle_project(img, geo, 1.7))


def test_projection_operator_grows_past_its_initial_capacity():
    # Every ray runs the length of a 4 × 40 strip: 40 pixels a ray, more
    # than the (nx + ny) / 2 the first allocation assumes.
    geo = ParallelBeamGeometry(num_views=1, num_detectors=4, detector_spacing=1.0)
    img = np.random.default_rng(5).random((4, 40))
    operator = projection_operator(geo, (4, 40), 1.0)
    assert operator.nnz == 160 and not operator.indices.flags.writeable
    assert_close(forward_project(img, geo), oracle_project(img, geo, 1.0))


@pytest.mark.parametrize("geo", GEOMETRIES, ids=IDS)
@pytest.mark.parametrize("n", [24, 25])
def test_backprojection_operator_matches_the_per_view_interpolation(geo, n):
    filtered = np.random.default_rng(4).standard_normal((geo.num_views, geo.num_detectors))
    operator = backprojection_operator(geo, n, 1.3)
    assert operator.nnz == n * n * geo.num_views * 2
    got = (operator @ filtered.ravel()).reshape(n, n)
    assert_close(got, oracle_backproject(filtered, geo, n, 1.3))


@pytest.mark.parametrize("geo", GEOMETRIES, ids=IDS)
@pytest.mark.parametrize("window", ["ramp", "hann"])
def test_fbp_matches_the_per_view_loop(geo, window):
    sino = forward_project(phantom(25), geo, 1.5)
    assert_close(fbp_reconstruct(sino, geo, 25, 1.5, window),
                 oracle_fbp(sino, geo, 25, 1.5, window))


@pytest.mark.parametrize("geo", GEOMETRIES, ids=IDS)
def test_projection_operator_is_the_adjoint_of_its_transpose(geo):
    rng = np.random.default_rng(6)
    x = rng.random((24, 24))
    y = rng.random((geo.num_views, geo.num_detectors))
    operator = projection_operator(geo, (24, 24), 1.5)
    lhs = np.vdot(forward_project(x, geo, 1.5), y)
    rhs = np.vdot(x.ravel(), operator.T @ y.ravel())
    assert lhs > 0.0
    assert np.isclose(lhs, rhs, rtol=1e-13)
    # The ray-level adjoint is the same block of the same matrix.
    d = geo.num_detectors
    extent = ray_extent((24, 24), 1.5)
    for view in (0, geo.num_views // 2):
        block = operator[view * d:(view + 1) * d]
        back = siddon_backproject(y[view], *geo.rays(view, extent), (24, 24), 1.5)
        assert np.array_equal(back.ravel(), block.T @ y[view])


@pytest.mark.parametrize("geo", GEOMETRIES, ids=IDS)
@pytest.mark.parametrize("shape", [(24, 24), (20, 28)])
def test_forward_project_equals_per_view_raycast(geo, shape):
    img = np.random.default_rng(3).random(shape)
    pixel_size = 1.7
    extent = ray_extent(shape, pixel_size)
    expected = np.stack([siddon_raycast(img, *geo.rays(v, extent), pixel_size)
                         for v in range(geo.num_views)])
    assert np.array_equal(forward_project(img, geo, pixel_size), expected)


# ---------------------------------------------------------------------------
# Stacks: every slice is one column, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("geo", GEOMETRIES, ids=IDS)
def test_stacked_entry_points_equal_their_slices(geo):
    volume = np.stack([phantom(24, seed) for seed in range(5)])
    sinos = forward_project(volume, geo, 1.5)
    assert sinos.shape == (5, geo.num_views, geo.num_detectors)
    recons = fbp_reconstruct(sinos, geo, 24, 1.5, "hann")
    assert recons.shape == (5, 24, 24)
    for z in range(5):
        assert np.array_equal(sinos[z], forward_project(volume[z], geo, 1.5))
        assert np.array_equal(recons[z], fbp_reconstruct(sinos[z], geo, 24, 1.5, "hann"))


def test_entry_points_reject_other_ranks():
    geo = GEOMETRIES[1]
    with pytest.raises(ValueError):
        forward_project(np.zeros((2, 2, 8, 8)), geo)
    with pytest.raises(ValueError):
        forward_project(np.zeros(8), geo)
    with pytest.raises(ValueError):
        fbp_reconstruct(np.zeros((2, 2, geo.num_views, geo.num_detectors)), geo, 8)
    with pytest.raises(ValueError):
        fbp_reconstruct(np.zeros((3, geo.num_views, geo.num_detectors + 1)), geo, 8)


@pytest.mark.parametrize("geo", GEOMETRIES, ids=IDS)
def test_volume_slices_equal_the_per_slice_pairs(geo):
    volume = np.stack([phantom(16, seed) for seed in range(3)])
    seeds = spawn_seeds(4, 3)
    full, low = simulate_low_dose_volume(volume, geo, blank_scan=1e4,
                                         pixel_size=2.0, seed=4)
    full_f, frac = simulate_dose_fraction_volume(volume, geo, full_blank_scan=1e4,
                                                 pixel_size=2.0, seed=4)
    for z in range(3):
        full_z, low_z, _ = simulate_low_dose_pair(
            volume[z], geo, blank_scan=1e4, pixel_size=2.0,
            rng=np.random.default_rng(seeds[z]))
        assert np.array_equal(full[z], full_z)
        assert np.array_equal(low[z], low_z)
        pair = simulate_dose_fraction_pair(volume[z], geo, full_blank_scan=1e4,
                                           pixel_size=2.0,
                                           rng=np.random.default_rng(seeds[z]))
        assert np.array_equal(full_f[z], pair[0])
        assert np.array_equal(frac[z], pair[1])
    assert not np.array_equal(full, low)


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("geo", GEOMETRIES, ids=IDS)
def test_cached_tables_are_read_only(geo):
    for operator in (projection_operator(geo, (24, 24), 1.5),
                     backprojection_operator(geo, 24, 1.5)):
        for array in (operator.data, operator.indices, operator.indptr):
            assert not array.flags.writeable
            assert array.dtype in (np.float64, np.int32)
        with pytest.raises(ValueError):
            operator.data[0] = 1.0


def test_tables_are_keyed_by_pixel_size_and_grid():
    geo = GEOMETRIES[0]
    base = projection_operator(geo, (24, 24), 1.0)
    assert projection_operator(geo, (24, 24), 1.0) is base
    others = [projection_operator(geo, (24, 24), 2.0),
              projection_operator(geo, (20, 24), 1.0),
              projection_operator(geo, (24, 20), 1.0)]
    for other in others:
        assert other is not base
    assert not np.array_equal(others[0].data[:10], base.data[:10])
    assert others[1].shape != base.shape
    back = backprojection_operator(geo, 24, 1.0)
    assert backprojection_operator(geo, 24, 1.0) is back
    assert backprojection_operator(geo, 24, 2.0) is not back
    assert backprojection_operator(geo, 20, 1.0).shape[0] == 20 * 20
    assert not np.array_equal(backprojection_operator(geo, 24, 2.0).data, back.data)


@pytest.mark.parametrize("geo", GEOMETRIES, ids=IDS)
def test_rebuilt_tables_are_bit_identical(geo):
    img = phantom()
    sino = forward_project(img, geo, 1.5)
    rec = fbp_reconstruct(sino, geo, 24, 1.5, "hann")
    sart = sart_reconstruct(sino, geo, 24, iterations=2, pixel_size=1.5)
    clear_caches()
    assert projector._projection_cached.cache_info().currsize == 0
    assert np.array_equal(forward_project(img, geo, 1.5), sino)
    assert np.array_equal(fbp_reconstruct(sino, geo, 24, 1.5, "hann"), rec)
    assert np.array_equal(sart_reconstruct(sino, geo, 24, iterations=2, pixel_size=1.5), sart)


def test_table_bytes_at_benchmark_geometry():
    geo = paper_geometry(64 / 512)
    project = projection_operator(geo, (64, 64), 350 / 64)
    back = backprojection_operator(geo, 64, 350 / 64)
    # 90 views × 128 rays by 64² pixels; two taps per pixel per view.
    assert project.shape == (90 * 128, 64 * 64) and back.shape == (64 * 64, 90 * 128)
    assert back.nnz == 64 * 64 * 90 * 2
    total = sum(a.nbytes for op in (project, back)
                for a in (op.data, op.indices, op.indptr))
    assert project.nnz == 488_780
    assert total == 14_775_192  # the figure docs/performance.md states


def test_volume_simulation_builds_operators_once_per_geometry():
    geo = ParallelBeamGeometry(num_views=12, num_detectors=25)
    volume = np.stack([phantom(16, seed) for seed in range(3)])
    clear_caches()
    for seed in (2, 3):
        simulate_low_dose_volume(volume, geo, pixel_size=1.25, seed=seed)
        simulate_dose_fraction_volume(volume, geo, pixel_size=1.25, seed=seed)
    # Four volumes, eight dose arms: one build of each operator.
    for cached in (projector._projection_cached, fbp._backprojection_cached):
        info = cached.cache_info()
        assert (info.misses, info.currsize) == (1, 1)


def _fbp_holding_every_buffer(sinogram, geo, n, pixel_size, window):
    """``fbp_reconstruct`` as it was before it released its buffers: the
    weighted sinograms and the inverse-FFT output stay alive through
    the back projection."""
    sod = geo.source_to_isocenter
    iso = geo.detector_coords * (sod / geo.source_to_detector)
    spacing = geo.detector_spacing * (sod / geo.source_to_detector)
    weighted = sinogram * (sod / np.sqrt(sod**2 + iso**2))
    filtered = fbp._filter_projections(weighted, spacing, window)
    columns = np.ascontiguousarray(np.moveaxis(filtered, 0, -1)).reshape(-1, len(filtered))
    recon = backprojection_operator(geo, n, pixel_size) @ columns
    return recon.T.reshape(sinogram.shape[:-2] + (n, n))


def test_fbp_releases_its_buffers_before_the_back_projection():
    """At perfbench's geometry (two 16-slice dose arms), the transient peak
    above the cached operators falls by at least the weighted sinograms,
    and the output is unchanged bit for bit."""
    import tracemalloc

    geo = paper_geometry(64 / 512)
    pixel_size = 350 / 64
    backprojection_operator(geo, 64, pixel_size)  # cached before the peak is read
    sino = np.random.default_rng(0).random((32, geo.num_views, geo.num_detectors))
    peaks, outs = [], []
    for run in (_fbp_holding_every_buffer, fbp_reconstruct):
        tracemalloc.start()
        try:
            outs.append(run(sino, geo, 64, pixel_size, "hann"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert np.array_equal(outs[0], outs[1])
    assert peaks[1] <= peaks[0] - sino.nbytes
