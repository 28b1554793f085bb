"""Tests for the ``fast`` backend: FFT conv, fallbacks, caches, fused ops.

The backend-wide parity grid lives in ``test_backend.py``; this module
covers the fast backend's *mechanisms* — crossover selection, the
shortest-length FFT rule and its parity grid, the bin-major
filter-transform cache and its invalidation hooks (including the
dtype/backend composition edge cases and in-place weight updates), the
fused decoder pair on DDnet, and the bit-identical reference fallbacks.
"""

import itertools

import numpy as np
import pytest
import scipy.fft

import repro.nn as nn
from repro.models.ddnet import DDnet
import repro.backend.fast as fast_backend
from repro.backend.fast import (
    FALLBACK_OPS,
    FFT_CROSSOVER_ELEMS,
    clear_fft_cache,
    fft_cache_size,
    next_fast_len,
    route,
)
from repro.backend.precision import allclose_ulp, bit_identical
from repro.backend.registry import (
    clear_kernel_caches,
    dispatch,
    known_backends,
    use_backend,
)
from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def _clean_fft_cache():
    clear_fft_cache()
    yield
    clear_fft_cache()


class TestCrossover:
    def test_next_fast_len_is_5_smooth_and_minimal(self):
        for n in (1, 6, 7, 17, 31, 97, 101, 480, 509):
            m = next_fast_len(n)
            assert m >= n
            q = m
            for p in (2, 3, 5):
                while q % p == 0:
                    q //= p
            assert q == 1, (n, m)
        assert next_fast_len(16) == 16
        assert next_fast_len(17) == 18

    def test_fft_eligibility_crossover(self):
        # 5×5 (the DDnet hot kernel) is exactly at the crossover.
        assert FFT_CROSSOVER_ELEMS == 25
        assert route((5, 5), (1, 1), (2, 2), 2) == "fft"
        assert route((3, 3, 3), (1, 1, 1), (1, 1, 1), 2) == "fft"
        assert route((5, 5), (1, 1), (4, 0), 2) == "fft"
        assert route((3, 3), (1, 1), (1, 1), 2) == "reference"   # below crossover
        assert route((5, 5), (2, 2), (2, 2), 2) == "reference"   # strided: gather path
        assert route((5, 5), (1, 1), (5, 2), 2) == "reference"   # p >= k

    def test_strided_and_small_kernels_skip_fft(self, rng):
        # Sub-crossover convs must not populate the FFT cache.
        x = rng.normal(size=(1, 2, 8, 8))
        w3 = rng.normal(size=(2, 2, 3, 3))
        with no_grad():
            dispatch("conv", x, w3, None, 1, 1, want_cols=False,
                     backend="fast")
        assert fft_cache_size() == 0
        w5 = rng.normal(size=(2, 2, 5, 5))
        with no_grad():
            dispatch("conv", x, w5, None, 1, 2, want_cols=False,
                     backend="fast")
        assert fft_cache_size() == 1


class TestRouting:
    """Each conv and deconv runs on the kernel :func:`route` picks for its
    shape: pointwise calls as one channel GEMM, one-channel calls and the
    training path on ``reference``, the rest on the FFT above the tap
    crossover."""

    def test_route_by_shape(self):
        assert route((1, 1), (1, 1), (0, 0), 64) == "gemm"
        assert route((1, 1, 1), (1, 1, 1), (0, 0, 0), 40) == "gemm"
        assert route((1, 1), (1, 1), (0, 0), 32, resized=True) == "reference"
        assert route((1, 1), (1, 1), (1, 1), 32) == "reference"
        assert route((1, 1), (2, 2), (0, 0), 32) == "reference"
        # One input channel: nothing for the FFT to contract over.
        assert route((7, 7), (1, 1), (3, 3), 1) == "reference"
        assert route((3, 3, 3), (1, 1, 1), (1, 1, 1), 1) == "reference"
        assert route((1, 1), (1, 1), (0, 0), 1) == "reference"
        # The training path keeps reference whatever the shape.
        for kernel, padding in (((5, 5), (2, 2)), ((1, 1), (0, 0))):
            assert route(kernel, (1, 1), padding, 16, grad=True) == "reference"

    @pytest.mark.parametrize("bias", [False, True], ids=["nobias", "bias"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("spatial", [(9, 7), (3, 6, 5)], ids=["2d", "3d"])
    def test_pointwise_conv_parity(self, rng, spatial, batch, dtype, bias):
        x = rng.normal(size=(batch, 12) + spatial).astype(dtype)
        w = rng.normal(size=(5, 12) + (1,) * len(spatial)).astype(dtype)
        b = rng.normal(size=5).astype(dtype) if bias else None
        with no_grad():
            ref, fast = (dispatch("conv", x, w, b, 1, 0, want_cols=False, backend=be)[0]
                         for be in ("reference", "fast"))
            g = rng.normal(size=ref.shape).astype(dtype)
            dref, dfast = (dispatch("deconv", g, w, x.shape, 1, 0, backend=be)
                           for be in ("reference", "fast"))
        for r, f in ((ref, fast), (dref, dfast)):
            assert f.dtype == dtype and f.shape == r.shape and f.flags.c_contiguous
            assert allclose_ulp(r, f)

    @pytest.mark.parametrize("channels", [(32, 16), (32, 1)], ids=["32to16", "head"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pointwise_deconv_parity(self, rng, channels, dtype):
        """DDnet's 1×1 transposed convs, bias included, through the
        autograd op: 32 → 16 and the 32 → 1 head."""
        cin, cout = channels
        x = Tensor(rng.normal(size=(2, cin, 16, 16)).astype(dtype))
        w = Tensor(rng.normal(size=(cin, cout, 1, 1)).astype(dtype))
        b = Tensor(rng.normal(size=cout).astype(dtype))
        with no_grad():
            out = {}
            for backend in ("reference", "fast"):
                with use_backend(backend):
                    out[backend] = F.conv_transpose_nd(x, w, bias=b).data
        assert out["fast"].shape == (2, cout, 16, 16)
        assert allclose_ulp(out["reference"], out["fast"])

    def test_output_padding_pointwise_deconv_falls_back(self, rng):
        g = rng.normal(size=(2, 8, 6, 6))
        w = rng.normal(size=(8, 4, 1, 1))
        x_shape = (2, 4, 7, 7)
        with no_grad():
            ref, fast = (dispatch("deconv", g, w, x_shape, 1, 0, backend=be)
                         for be in ("reference", "fast"))
        assert bit_identical(ref, fast)

    @pytest.mark.parametrize("x_shape,w_shape,padding", [
        ((8, 1, 64, 64), (16, 1, 7, 7), 3),                # DDnet's stem
        ((1, 1, 16, 32, 32), (8, 1, 3, 3, 3), 1),          # DenseNet3D's stem
    ], ids=["ddnet", "densenet3d"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_channel_conv_is_reference(self, rng, x_shape, w_shape, padding, dtype):
        x = rng.normal(size=x_shape).astype(dtype)
        w = rng.normal(size=w_shape).astype(dtype)
        b = rng.normal(size=w_shape[0]).astype(dtype)
        with no_grad():
            ref, fast = (dispatch("conv", x, w, b, 1, padding, want_cols=False,
                                  backend=be)[0] for be in ("reference", "fast"))
        assert np.array_equal(ref, fast) and ref.dtype == fast.dtype
        assert fft_cache_size() == 0

    def test_no_fft_for_one_channel_or_pointwise_calls(self, rng, monkeypatch):
        calls = []
        real_rfftn = scipy.fft.rfftn

        def spy(a, *args, **kw):
            calls.append(a.shape)
            return real_rfftn(a, *args, **kw)

        monkeypatch.setattr(scipy.fft, "rfftn", spy)
        x1 = rng.normal(size=(2, 1, 16, 16)).astype(np.float32)
        stem = rng.normal(size=(4, 1, 7, 7)).astype(np.float32)
        x8 = rng.normal(size=(2, 8, 16, 16)).astype(np.float32)
        pw = rng.normal(size=(4, 8, 1, 1)).astype(np.float32)
        with no_grad():
            dispatch("conv", x1, stem, None, 1, 3, want_cols=False, backend="fast")
            y = dispatch("conv", x8, pw, None, 1, 0, want_cols=False, backend="fast")[0]
            dispatch("deconv", y, pw, x8.shape, 1, 0, backend="fast")
            g1 = rng.normal(size=(2, 1, 16, 16)).astype(np.float32)
            dispatch("deconv", g1, rng.normal(size=(1, 3, 5, 5)), (2, 3, 16, 16), 1, 2,
                     backend="fast")
        assert calls == []
        with no_grad():
            dispatch("conv", x8, rng.normal(size=(4, 8, 5, 5)), None, 1, 2,
                     want_cols=False, backend="fast")
        assert len(calls) == 2          # the FFT itself still runs: input and filter

    def test_grad_mode_deconv_is_reference(self, rng):
        g = rng.normal(size=(1, 32, 16, 16))
        w = rng.normal(size=(32, 32, 5, 5))
        ref = dispatch("deconv", g, w, (1, 32, 16, 16), 1, 2, backend="reference")
        fast = dispatch("deconv", g, w, (1, 32, 16, 16), 1, 2, backend="fast")
        assert bit_identical(ref, fast)
        with no_grad():
            fast = dispatch("deconv", g, w, (1, 32, 16, 16), 1, 2, backend="fast")
        assert fft_cache_size() == 1 and allclose_ulp(ref, fast)

    def test_conv_backward_runs_reference_deconv(self, rng):
        """A training step's input gradient on ``fast`` is ``reference``'s."""
        x0 = rng.normal(size=(1, 4, 12, 12))
        w0 = rng.normal(size=(6, 4, 5, 5))
        grads = {}
        for backend in ("reference", "fast"):
            x = Tensor(x0, requires_grad=True)
            w = Tensor(w0, requires_grad=True)
            with use_backend(backend):
                F.conv_nd(x, w, padding=2).sum().backward()
            grads[backend] = x.grad
        assert bit_identical(grads["reference"], grads["fast"])
        assert fft_cache_size() == 0


def _conv_and_deconv(x, w, padding, backend):
    with no_grad():
        y = dispatch("conv", x, w, None, 1, padding, want_cols=False, backend=backend)[0]
        gx = dispatch("deconv", y, w, x.shape, 1, padding, backend=backend)
    return y, gx


def _length_rule(x_shape, kernel, padding):
    """The rfftn lengths the shortest-length rule gives a conv of ``x``
    and the deconv of its output back to ``x``'s shape."""
    conv = tuple(next_fast_len(h + p) for h, p in zip(x_shape, padding))
    out = tuple(h + 2 * p - k + 1 for h, k, p in zip(x_shape, kernel, padding))
    deconv = tuple(next_fast_len(g + k - 1 - p) for g, k, p in zip(out, kernel, padding))
    return conv, deconv


def _grid():
    """(kernel, padding, spatial) cases: odd and even k, AH-Net's
    anisotropic kernels, every p in 0..k-1, sizes from below k to 33."""
    kernels = [(5, 5), (6, 6), (7, 7), (3, 3, 3), (4, 4, 4), (1, 5, 5), (5, 1, 5),
               (1, 3, 3), (3, 1, 1)]
    for kernel in kernels:
        kmax = max(kernel)
        for p in range(kmax):
            padding = tuple(min(p, k - 1) for k in kernel)
            sizes = [kmax - 1, kmax, 17, 33] if len(kernel) == 2 else [kmax - 1, 9, 16]
            for i, sp in enumerate(itertools.product(sizes, repeat=len(kernel))):
                if i % 3 != p % 3:          # a third of the size grid per p
                    continue
                if all(h + 2 * q >= k for h, q, k in zip(sp, padding, kernel)):
                    yield kernel, padding, sp


GRID = list(_grid())


class TestShortestLength:
    @pytest.mark.parametrize("kernel,padding,sp", GRID,
                             ids=[f"k{k}-p{p}-{s}" for k, p, s in GRID])
    def test_parity_grid(self, kernel, padding, sp):
        rng = np.random.default_rng(hash((kernel, padding, sp)) % 2**32)
        dtype = np.float32 if sum(sp) % 2 else np.float64
        x = rng.normal(size=(2, 2) + sp).astype(dtype)
        w = rng.normal(size=(3, 2) + kernel).astype(dtype)
        ref = _conv_and_deconv(x, w, padding, "reference")
        fast = _conv_and_deconv(x, w, padding, "fast")
        for r, f in zip(ref, fast):
            assert f.dtype == dtype
            assert allclose_ulp(r, f)

    @pytest.mark.parametrize("padding", [0, 2, 4])
    def test_output_padding_deconv(self, rng, padding):
        # A transposed conv's output padding makes H longer than G+k-1-2p;
        # the length rule then covers H+p.
        g = rng.normal(size=(1, 3, 7, 9))
        w = rng.normal(size=(3, 2, 5, 5))
        x_shape = (1, 2, 7 + 4 - 2 * padding + 1, 9 + 4 - 2 * padding + 2)
        with no_grad():
            ref, fast = (dispatch("deconv", g, w, x_shape, 1, padding, backend=b)
                         for b in ("reference", "fast"))
        assert fft_cache_size() == 1 and allclose_ulp(ref, fast)

    def test_grid_covers_the_fft_path(self):
        eligible = [c for c in GRID if route(c[0], (1,) * len(c[0]), c[1], 2) == "fft"]
        assert len(eligible) > len(GRID) // 2
        assert {len(c[0]) for c in eligible} == {2, 3}

    @pytest.mark.parametrize("kernel,padding", [
        ((5, 5), (5, 5)), ((5, 5), (2, 6)), ((3, 3, 3), (1, 3, 1)), ((5, 5), (9, 9)),
    ])
    def test_padding_of_k_or_more_is_reference_bit_for_bit(self, rng, kernel, padding):
        x = rng.normal(size=(1, 2) + (6,) * len(kernel))
        w = rng.normal(size=(3, 2) + kernel)
        for r, f in zip(_conv_and_deconv(x, w, padding, "reference"),
                        _conv_and_deconv(x, w, padding, "fast")):
            assert bit_identical(r, f)
        assert fft_cache_size() == 0

    @pytest.mark.parametrize("x_shape,kernel,padding", [
        ((8, 64, 32, 32), (5, 5), (2, 2)),     # DDnet's dense-block convs
        ((8, 64, 16, 16), (5, 5), (2, 2)),
        ((8, 64, 8, 8), (5, 5), (2, 2)),
        ((8, 64, 4, 4), (5, 5), (2, 2)),
        ((1, 12, 16, 64, 64), (3, 3, 3), (1, 1, 1)),
        ((1, 2, 3, 20), (6, 6), (4, 1)),
    ])
    def test_rfftn_lengths_follow_the_rule(self, monkeypatch, x_shape, kernel, padding):
        lengths = []
        real_rfftn = scipy.fft.rfftn

        def spy(a, s=None, axes=None, **kw):
            lengths.append(tuple(s))
            return real_rfftn(a, s=s, axes=axes, **kw)

        monkeypatch.setattr(scipy.fft, "rfftn", spy)
        x = np.zeros((1, 2) + x_shape[2:], dtype=np.float32)
        w = np.zeros((3, 2) + kernel, dtype=np.float32)
        _conv_and_deconv(x, w, padding, "fast")
        conv, deconv = _length_rule(x_shape[2:], kernel, padding)
        # input and filter transforms of the conv, then of the deconv
        assert lengths == [conv, conv, deconv, deconv]

    def test_ddnet_lengths(self):
        assert [_length_rule((n, n), (5, 5), (2, 2))[0] for n in (32, 16, 8)] == [
            (36, 36), (18, 18), (10, 10)]

    @pytest.mark.parametrize("kernel,padding,sp", [
        ((5, 5), (2, 2), (11, 13)), ((6, 6), (0, 5), (7, 9)), ((7, 7), (6, 3), (2, 8)),
        ((7, 7), (1, 1), (5, 9)),            # axis 0: L = 6 cuts the 7-tap kernel
        ((3, 3, 3), (1, 0, 2), (4, 6, 5)),
    ])
    def test_unrounded_length_is_exact_and_one_shorter_is_not(
            self, monkeypatch, rng, kernel, padding, sp):
        """The rule is tight: at its exact (unrounded) length the circular
        result equals the linear one; one bin shorter on any axis, the
        kept slice no longer fits or the wrap (or a cut kernel) shows."""
        x = rng.normal(size=(1, 2) + sp)
        w = rng.normal(size=(3, 2) + kernel)
        ref = _conv_and_deconv(x, w, padding, "reference")
        monkeypatch.setattr(fast_backend, "next_fast_len", lambda n: n)
        for r, f in zip(ref, _conv_and_deconv(x, w, padding, "fast")):
            assert allclose_ulp(r, f)
        nd = len(sp)
        for axis in range(nd):
            calls = itertools.count()
            monkeypatch.setattr(fast_backend, "next_fast_len",
                                lambda n: n - (next(calls) % nd == axis))
            for r, f in zip(ref, _conv_and_deconv(x, w, padding, "fast")):
                assert r.shape != f.shape or not allclose_ulp(r, f), axis

    def test_cached_spectrum_is_bin_major_and_contiguous(self, rng):
        x = rng.normal(size=(2, 4, 12, 10)).astype(np.float32)
        w = rng.normal(size=(3, 4, 5, 5)).astype(np.float32)
        _conv_and_deconv(x, w, (2, 1), "fast")
        conv, deconv = _length_rule((12, 10), (5, 5), (2, 1))
        spectra = [v[1] for v in fast_backend._FFT_CACHE.values()]
        bins = [L0 * (L1 // 2 + 1) for L0, L1 in (conv, deconv)]
        assert [s.shape for s in spectra] == [(bins[0], 4, 3), (bins[1], 3, 4)]
        for spectrum in spectra:
            assert spectrum.flags.c_contiguous and spectrum.dtype == np.complex64
        clear_kernel_caches()
        assert fft_cache_size() == 0

    def test_cached_spectrum_is_dropped_by_an_optimizer_step(self, rng):
        layer = nn.Conv2d(4, 3, 5, padding=2, rng=np.random.default_rng(1)).to_backend("fast")
        x = Tensor(rng.normal(size=(1, 4, 9, 9)))
        with no_grad():
            layer(x)
        (spectrum,) = [v[1] for v in fast_backend._FFT_CACHE.values()]
        assert spectrum.shape == (next_fast_len(11) * (next_fast_len(11) // 2 + 1), 4, 3)
        assert spectrum.flags.c_contiguous
        opt = nn.Adam(layer.parameters(), lr=0.1)
        layer(x).sum().backward()
        opt.step()
        assert fft_cache_size() == 0


class TestFFTCache:
    def test_cache_hit_and_explicit_clear(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(2, 2, 5, 5))
        with no_grad():
            dispatch("conv", x, w, None, 1, 2, want_cols=False, backend="fast")
            assert fft_cache_size() == 1
            dispatch("conv", x, w, None, 1, 2, want_cols=False, backend="fast")
            assert fft_cache_size() == 1  # hit, not a second entry
        clear_kernel_caches()
        assert fft_cache_size() == 0

    def test_grad_mode_bypasses_cache(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(2, 2, 5, 5))
        dispatch("conv", x, w, None, 1, 2, want_cols=False, backend="fast")
        assert fft_cache_size() == 0

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_optimizer_step_invalidates(self, rng, optimizer):
        """An in-place weight update must not leave stale transforms."""
        layer = nn.Conv2d(2, 3, 5, padding=2, rng=np.random.default_rng(1))
        layer.to_backend("fast")
        x = Tensor(rng.normal(size=(1, 2, 8, 8)))
        with no_grad():
            layer(x)
        assert fft_cache_size() == 1
        opt = (nn.Adam(layer.parameters(), lr=0.1) if optimizer == "adam"
               else nn.SGD(layer.parameters(), lr=0.1))
        layer(x).sum().backward()
        opt.step()
        assert fft_cache_size() == 0
        with no_grad():
            fast = layer(x).data
            layer.to_backend("reference")
            ref = layer(x).data
        assert allclose_ulp(ref, fast)

    def test_validation_after_training_matches_reference(self, rng):
        """Trainer.fit validates every epoch on the weights of that epoch."""
        from repro.pipeline.training import Trainer

        x = rng.normal(size=(4, 1, 8, 8))
        y = rng.normal(size=(4, 1, 8, 8))
        ds = nn.TensorDataset(x, y)
        val_losses = {}
        for backend in ("reference", "fast"):
            model = nn.Sequential(
                nn.Conv2d(1, 2, 5, padding=2, rng=np.random.default_rng(1)),
                nn.ReLU(),
                nn.Conv2d(2, 1, 5, padding=2, rng=np.random.default_rng(2)),
            ).to_backend(backend)
            hist = Trainer(model, nn.Adam(model.parameters(), lr=0.05),
                           nn.MSELoss()).fit(
                nn.DataLoader(ds, batch_size=2), epochs=2,
                val_loader=nn.DataLoader(ds, batch_size=4))
            val_losses[backend] = np.array(hist.val_loss)
        assert val_losses["reference"][0] != val_losses["reference"][1]
        assert allclose_ulp(val_losses["reference"], val_losses["fast"])

    def test_load_state_dict_after_to_dtype_invalidates(self, rng):
        """The satellite-4 composition edge case: ``to_dtype(float16)``
        then ``load_state_dict`` — each step must drop the filter
        transforms, and the final forward must run at float16."""
        layer = nn.Conv2d(2, 3, 5, padding=2, rng=np.random.default_rng(1))
        layer.to_backend("fast")
        x64 = Tensor(rng.normal(size=(1, 2, 8, 8)))
        with no_grad():
            layer(x64)
        assert fft_cache_size() == 1
        layer.to_dtype(np.float16)
        assert fft_cache_size() == 0
        x16 = Tensor(rng.normal(size=(1, 2, 8, 8)), dtype=np.float16)
        with no_grad():
            out = layer(x16)
            assert out.data.dtype == np.float16
            assert fft_cache_size() == 1
        layer.load_state_dict(layer.state_dict())
        assert fft_cache_size() == 0
        with no_grad():
            assert layer(x16).data.dtype == np.float16


class TestFusedDecoder:
    def _model(self):
        return DDnet(base_channels=4, growth=4, num_blocks=2,
                     layers_per_block=2, global_shortcuts=False,
                     rng=np.random.default_rng(3))

    def _unfused_forward(self, m, x):
        m._check_input(x)
        h = m.stem(x)
        for block, transition, pool in zip(m.blocks, m.transitions, m.pools):
            h = pool(h)
            h = block(h)
            h = transition(h)
        for stage in range(m.num_blocks):
            h = m.unpools[stage](h)
            h = m.deconvs_a[stage](h)
            if stage < m.num_blocks - 1:
                h = m.deconvs_b[stage](h)
        out = m.head(h)
        return out + x if m.residual else out

    def test_fused_path_bit_identical_on_reference(self, rng):
        m = self._model()
        x = Tensor(rng.normal(size=(1, 1, 16, 16)))
        with no_grad():
            fused = m(x).data
            unfused = self._unfused_forward(m, x).data
        assert bit_identical(fused, unfused)

    def test_fused_path_ulp_on_fast(self, rng):
        m = self._model()
        x = Tensor(rng.normal(size=(1, 1, 16, 16)))
        with no_grad():
            ref = m(x).data
            m.to_backend("fast")
            fast = m(x).data
        assert allclose_ulp(ref, fast)

    def test_grad_mode_composes_autograd_ops(self, rng):
        m = self._model()
        x = Tensor(rng.normal(size=(1, 1, 16, 16)))
        y = m(x)
        y.sum().backward()
        grads = [p.grad for p in m.parameters() if p.requires_grad]
        assert grads and any(np.any(g != 0) for g in grads if g is not None)

    def test_functional_fused_matches_composition(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)))
        w = Tensor(rng.normal(size=(3, 4, 5, 5)))
        b = Tensor(rng.normal(size=4))
        with no_grad():
            up = F.upsample_bilinear(x, 2)
            expected = F.conv_transpose_nd(up, w, bias=b, stride=1, padding=2)
            fused = F.fused_unpool_deconv(x, w, bias=b, scale=2, stride=1,
                                          padding=2)
        assert bit_identical(expected.data, fused.data)


class TestFallbacks:
    def test_fallback_fast_entries_bit_match_their_target(self, rng):
        x = rng.normal(size=(1, 3, 6, 6))
        args = {
            "maxpool": (x, 2, 2, 0),
            "avgpool": (x, 2, 2, 0),
            "unpool": (x, 2),
            "leaky_relu": (x, 0.01),
            "relu": (x,),
        }
        for op, call_args in args.items():
            target = FALLBACK_OPS[op]
            via_target = dispatch(op, *call_args, backend=target)
            via_fast = dispatch(op, *call_args, backend="fast")
            if isinstance(via_target, tuple):  # pooling kernels return extras
                via_target, via_fast = via_target[0], via_fast[0]
            assert bit_identical(via_target, via_fast), op

    @pytest.mark.parametrize("case", [
        ((1, 3, 7, 6), (4, 3, 3, 3), 1, 1),        # below the crossover
        ((2, 2, 8, 8), (3, 2, 1, 1), 1, 1),        # 1x1 with a padding: not pointwise
        ((1, 2, 9, 9), (3, 2, 5, 5), 2, 2),        # strided 5x5
        ((1, 2, 5, 6, 4), (2, 2, 3, 3, 3), 2, 1),  # strided 3-d
    ])
    def test_small_and_strided_convs_bit_match_reference(self, rng, case):
        x_shape, w_shape, stride, padding = case
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        bias = rng.normal(size=w_shape[0])
        with no_grad():
            for want_cols in (False, True):
                ref = dispatch("conv", x, w, bias, stride, padding,
                               want_cols=want_cols, backend="reference")
                fast = dispatch("conv", x, w, bias, stride, padding,
                                want_cols=want_cols, backend="fast")
                assert bit_identical(ref, fast), want_cols
            g = ref[0]
            assert bit_identical(
                dispatch("deconv", g, w, x.shape, stride, padding,
                         backend="reference"),
                dispatch("deconv", g, w, x.shape, stride, padding,
                         backend="fast"))
        assert fft_cache_size() == 0

    def test_every_op_covered(self):
        from repro.backend.registry import known_ops

        for op in known_ops():
            assert "fast" in known_backends(op), op


class TestDtypePreservation:
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_fast_conv_keeps_reduced_dtype(self, rng, dtype):
        x = rng.normal(size=(1, 2, 8, 8)).astype(dtype)
        w = rng.normal(size=(2, 2, 5, 5)).astype(dtype)
        with no_grad(), use_backend("fast"):
            out, _, _ = dispatch("conv", x, w, None, 1, 2, want_cols=False)
            assert out.dtype == dtype
            deconv = dispatch("deconv", out, w, x.shape, (1, 1), (2, 2))
            assert deconv.dtype == dtype

    def test_unpool_keeps_reduced_dtype(self, rng):
        x = rng.normal(size=(1, 2, 4, 4)).astype(np.float16)
        out = dispatch("unpool", x, 2, backend="fast")
        assert out.dtype == np.float16
