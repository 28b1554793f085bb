"""Tests for the ``fast`` backend: FFT conv, fallbacks, caches, fused ops.

The backend-wide parity grid lives in ``test_backend.py``; this module
covers the fast backend's *mechanisms* — crossover selection, the
filter-transform FFT cache and its invalidation hooks (including the
dtype/backend composition edge cases and in-place weight updates), the
fused decoder pair on DDnet, the batched multi-scan functional wrapper,
and the bit-identical reference fallbacks.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.models.ddnet import DDnet
from repro.backend.fast import (
    FALLBACK_OPS,
    FFT_CROSSOVER_ELEMS,
    clear_fft_cache,
    fft_cache_size,
    fft_eligible,
    next_fast_len,
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
        assert fft_eligible((5, 5), (1, 1))
        assert fft_eligible((3, 3, 3), (1, 1, 1))
        assert not fft_eligible((3, 3), (1, 1))      # below crossover
        assert not fft_eligible((1, 1), (1, 1))
        assert not fft_eligible((5, 5), (2, 2))      # strided: gather path

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


class TestConvBatch:
    def test_matches_per_scan_convs(self, rng):
        scans = [rng.normal(size=(3, 6, 6)) for _ in range(4)]
        w = Tensor(rng.normal(size=(4, 3, 5, 5)))
        b = Tensor(rng.normal(size=4))
        with no_grad():
            batched = F.conv_batch(scans, w, bias=b, stride=1, padding=2,
                                   backend="fast")
            singles = [
                F.conv_nd(Tensor(s[None]), w, bias=b, stride=1, padding=2).data[0]
                for s in scans
            ]
        assert batched.data.shape == (4, 4, 6, 6)
        assert allclose_ulp(np.stack(singles), batched.data)

    def test_inference_only(self, rng):
        scans = [rng.normal(size=(2, 4, 4))]
        w = Tensor(rng.normal(size=(2, 2, 3, 3)))
        with pytest.raises(RuntimeError, match="inference-only"):
            F.conv_batch(scans, w)

    def test_amortizes_one_filter_transform(self, rng):
        scans = [rng.normal(size=(2, 8, 8)) for _ in range(4)]
        w = rng.normal(size=(2, 2, 5, 5))
        with no_grad():
            dispatch("conv_batch", scans, w, None, 1, 2, None, backend="fast")
        assert fft_cache_size() == 1


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
        ((2, 2, 8, 8), (3, 2, 1, 1), 1, 0),        # 1x1
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
            assert bit_identical(
                dispatch("conv_bias_act", x, w, bias, stride, padding, 0.01,
                         backend="reference"),
                dispatch("conv_bias_act", x, w, bias, stride, padding, 0.01,
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
