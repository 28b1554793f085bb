"""The ``reference`` backend is the bit tier: its numbers do not move.

The one-pass inference max-pool, ``leaky_relu_forward`` and
``batchnorm_forward`` equal, bit for bit, the multi-pass NumPy
expressions written out below (what those kernels computed before they
were rewritten to make fewer passes): kernel by kernel on awkward
inputs, and end to end, where a ``reference`` diagnosis and training
steps run once on the kernels and once on those expressions in the same
process.  Same-process comparison holds on any CPU and NumPy build; a
recorded digest of the full-size run lives in
``benchmarks/perf/reference_digest.py``.
"""

import importlib.util
import os
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.backend.registry import REGISTRY
from repro.nn import LeakyReLU
from repro.tensor.ops_activation import leaky_relu_forward
from repro.tensor.ops_norm import batchnorm_forward
from repro.tensor import no_grad
from repro.tensor.ops_pool import max_pool_nd_forward

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# The multi-pass expressions the kernels must reproduce bit for bit
# ---------------------------------------------------------------------------
def _tup(v, nd):
    return tuple(v) if isinstance(v, (tuple, list)) else (v,) * nd


def window_max(x, kernel, stride=None, padding=0):
    nd = x.ndim - 2
    stride = _tup(kernel if stride is None else stride, nd)
    padding = _tup(padding, nd)
    xp = x
    if any(padding):
        pads = [(0, 0), (0, 0)] + [(p, p) for p in padding]
        xp = np.pad(x, pads, mode="constant", constant_values=-np.inf)
    win = sliding_window_view(xp, _tup(kernel, nd), axis=tuple(range(2, 2 + nd)))
    win = win[(slice(None), slice(None)) + tuple(slice(None, None, s) for s in stride)]
    return win.reshape(win.shape[: 2 + nd] + (-1,)).max(axis=-1)


def where_leaky(x, slope=0.01):
    return np.where(x > 0, x, slope * x)


def four_pass_batchnorm(x, mean, var, gamma, beta, eps=1e-5):
    shape = (1, -1) + (1,) * (x.ndim - 2)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
    out = gamma.reshape(shape) * x_hat + beta.reshape(shape)
    return out, x_hat, inv_std


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


SPECIALS = (np.nan, np.inf, -np.inf, -0.0, 0.0)


def awkward(shape, dtype, seed, specials=SPECIALS):
    """Gaussian values with NaN, ±inf and ±0.0 sprinkled in, ties too."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.1] = 1.5
    flat = x.reshape(-1)
    picks = rng.choice(flat.size, size=max(flat.size // 8, len(specials)), replace=False)
    flat[picks] = rng.choice(np.array(specials), size=picks.size)
    return x.astype(dtype)


SHAPES = {"2d": (2, 3, 9, 12), "3d": (1, 2, 5, 8, 7)}
DTYPES = (np.float32, np.float64)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dim", sorted(SHAPES))
class TestOnePassKernelsMatchTheirExpressions:
    # DDnet's 3/2/1 window and AH-Net's 2/2/0 window.
    @pytest.mark.parametrize("kernel,stride,padding", [(3, 2, 1), (2, 2, 0)])
    def test_inference_maxpool(self, dim, dtype, kernel, stride, padding):
        for seed in range(4):
            x = awkward(SHAPES[dim], dtype, seed)
            out, idx, xp_shape = max_pool_nd_forward(x, kernel, stride, padding,
                                                     want_indices=False)
            assert idx is None
            assert xp_shape == tuple(np.pad(
                x, [(0, 0)] * 2 + [(padding, padding)] * (x.ndim - 2)).shape)
            assert out.flags.c_contiguous
            assert_bits_equal(out, window_max(x, kernel, stride, padding))

    def test_inference_maxpool_nan_sign(self, dim, dtype):
        # With NaNs of both signs in one window, which NaN a max returns
        # depends on NumPy's loop (the flattened-window reduction and an
        # elementwise maximum pick differently); every other bit holds.
        x = awkward(SHAPES[dim], dtype, 5, specials=SPECIALS + (-np.nan,))
        out = max_pool_nd_forward(x, 3, 2, 1, want_indices=False)[0]
        want = window_max(x, 3, 2, 1)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(out), nan)
        assert out[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("slope", [0.01, 0.2, 1.0])
    def test_leaky_relu(self, dim, dtype, slope):
        x = awkward(SHAPES[dim], dtype, 7, specials=SPECIALS + (-np.nan,))
        assert_bits_equal(leaky_relu_forward(x, slope), where_leaky(x, slope))

    @pytest.mark.parametrize("stats_dtype", DTYPES)
    def test_batchnorm(self, dim, dtype, stats_dtype):
        x = awkward(SHAPES[dim], dtype, 3, specials=SPECIALS + (-np.nan,))
        rng = np.random.default_rng(11)
        c = x.shape[1]
        mean, gamma, beta = (rng.standard_normal(c).astype(stats_dtype) for _ in range(3))
        var = rng.random(c).astype(stats_dtype)
        var[0] = 0.0
        gamma[-1] = -0.0
        got = batchnorm_forward(x, mean, var, gamma, beta, 1e-5)
        want = four_pass_batchnorm(x, mean, var, gamma, beta, 1e-5)
        for g, w in zip(got, want):
            assert_bits_equal(g, w)
        # Without a gradient x_hat is dropped and the output is unchanged.
        with no_grad():
            out, x_hat, inv_std = batchnorm_forward(x, mean, var, gamma, beta, 1e-5)
        assert x_hat is None
        assert_bits_equal(out, want[0])
        assert_bits_equal(inv_std, want[2])


@pytest.mark.parametrize("slope", [0.0, -0.5, 1.5, np.nan])
def test_leaky_relu_rejects_slopes_outside_zero_to_one(slope):
    # Outside (0, 1] max(x, slope·x) is not the Leaky-ReLU.
    with pytest.raises(ValueError, match="negative_slope"):
        leaky_relu_forward(np.ones(3), slope)
    with pytest.raises(ValueError, match="negative_slope"):
        LeakyReLU(slope)


def test_leaky_relu_zero_dim_and_integer_inputs():
    for x in (np.array(-2.0), np.array(3.0, dtype=np.float32), np.arange(-3, 4)):
        assert_bits_equal(leaky_relu_forward(x, 0.01), where_leaky(x, 0.01))


@pytest.mark.parametrize("dtype", DTYPES)
def test_batchnorm_without_grad_allocates_only_its_output(dtype):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 16, 64, 64)).astype(dtype)
    stats = [rng.random(16).astype(dtype) for _ in range(4)]

    def peak_bytes():
        tracemalloc.start()
        try:
            batchnorm_forward(x, *stats)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with no_grad():  # the output, plus at most NumPy's fixed ufunc buffer
        assert peak_bytes() < 1.2 * x.nbytes
    assert peak_bytes() >= 2 * x.nbytes  # the training path keeps x_hat


def test_batchnorm_leaves_its_inputs_alone():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 4, 4))
    stats = [rng.random(3) for _ in range(4)]
    before = [a.copy() for a in [x] + stats]
    batchnorm_forward(x, *stats)
    for a, b in zip([x] + stats, before):
        assert_bits_equal(a, b)


# ---------------------------------------------------------------------------
# End to end: a reference diagnosis and training steps, kernels vs expressions
# ---------------------------------------------------------------------------
def windowed_maxpool(x, kernel=2, stride=None, padding=0, want_indices=True):
    """The max-pool kernel with its inference path as the window max."""
    if want_indices:
        return max_pool_nd_forward(x, kernel, stride, padding, want_indices=True)
    pads = _tup(padding, x.ndim - 2)
    xp_shape = x.shape[:2] + tuple(n + 2 * p for n, p in zip(x.shape[2:], pads))
    return np.ascontiguousarray(window_max(x, kernel, stride, padding)), None, xp_shape


def reference_run(workloads):
    """A tiny perfbench ``reference`` diagnosis and two training steps."""
    diagnose = workloads.DiagnoseLowDose(1, tiny=True)
    diagnose.framework.to_backend("reference")
    arrays = []
    for i in range(diagnose.cycle):
        scan, result = diagnose.run(i)
        arrays += [scan, np.float64(result.probability), result.lung_mask,
                   result.segmented_volume]
    train = workloads.TrainEnhance(1, tiny=True)
    arrays += [np.float64(train.run(i)) for i in range(2)]
    arrays += [v for _, v in sorted(train.enhancer.model.state_dict().items())]
    return arrays


def test_reference_run_matches_the_expressions_end_to_end(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    kernels = reference_run(workloads)

    expressions = {"maxpool": windowed_maxpool, "leaky_relu": where_leaky,
                   "batchnorm": four_pass_batchnorm}
    for op, fn in expressions.items():
        impls = REGISTRY.resolve(op, "reference")[0].impls
        for backend in ("reference", "fast"):
            monkeypatch.setitem(impls, backend, fn)
    assert len(kernels) > 10
    for got, want in zip(kernels, reference_run(workloads), strict=True):
        assert_bits_equal(np.asarray(got), np.asarray(want))
