"""Gradient and reference checks for convolution / transposed convolution."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tensor import Tensor, functional as F
from repro.tensor.gradcheck import gradcheck


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def conv2d_reference(x, w, b, stride, padding):
    """Literal quadruple-loop convolution used as ground truth."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, [(0, 0), (0, 0), (padding, padding), (padding, padding)])
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, ho, wo))
    for ni in range(n):
        for fi in range(f):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[ni, fi, i, j] = (patch * w[fi]).sum() + (b[fi] if b is not None else 0.0)
    return out


def deconv2d_reference(x, w, stride, padding):
    """Literal scatter deconvolution (the paper's Fig. 9a formulation)."""
    n, c, h, wd = x.shape
    _, f, kh, kw = w.shape
    ho = (h - 1) * stride + kh
    wo = (wd - 1) * stride + kw
    out = np.zeros((n, f, ho, wo))
    for ni in range(n):
        for ci in range(c):
            for i in range(h):
                for j in range(wd):
                    out[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw] += (
                        x[ni, ci, i, j] * w[ci]
                    )
    if padding:
        out = out[:, :, padding:-padding, padding:-padding]
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_reference(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        ref = conv2d_reference(x, w, b, stride, padding)
        assert np.allclose(out.data, ref, atol=1e-10)

    def test_gradcheck(self, rng):
        x = t(rng.normal(size=(1, 2, 5, 5)))
        w = t(rng.normal(size=(3, 2, 3, 3)) * 0.3)
        b = t(rng.normal(size=3))
        assert gradcheck(lambda a, ww, bb: F.conv2d(a, ww, bb, stride=1, padding=1), [x, w, b])

    def test_gradcheck_strided(self, rng):
        x = t(rng.normal(size=(1, 2, 6, 6)))
        w = t(rng.normal(size=(2, 2, 3, 3)) * 0.3)
        assert gradcheck(lambda a, ww: F.conv2d(a, ww, stride=2, padding=1), [x, w])

    def test_1x1_conv_is_channel_mix(self, rng):
        x = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(2, 3, 1, 1))
        out = F.conv2d(Tensor(x), Tensor(w)).data
        ref = np.einsum("nchw,fc->nfhw", x, w[:, :, 0, 0])
        assert np.allclose(out, ref)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.ones((1, 3, 4, 4))), Tensor(np.ones((2, 4, 3, 3))))

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.ones((3, 4, 4))), Tensor(np.ones((2, 3, 3, 3))))

    @given(st.integers(1, 2), st.integers(0, 2))
    def test_output_shape_formula(self, stride, padding):
        x = Tensor(np.zeros((1, 1, 9, 9)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        out = F.conv2d(x, w, stride=stride, padding=padding)
        expect = (9 + 2 * padding - 3) // stride + 1
        assert out.shape == (1, 1, expect, expect)


class TestConvTranspose2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 2), (2, 1), (2, 0)])
    def test_matches_reference(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(3, 4, 3, 3))
        out = F.conv_transpose2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        ref = deconv2d_reference(x, w, stride, padding)
        assert np.allclose(out.data, ref, atol=1e-10)

    def test_gradcheck(self, rng):
        x = t(rng.normal(size=(1, 2, 4, 4)))
        w = t(rng.normal(size=(2, 3, 3, 3)) * 0.3)
        b = t(rng.normal(size=3))
        assert gradcheck(
            lambda a, ww, bb: F.conv_transpose2d(a, ww, bb, stride=1, padding=1), [x, w, b]
        )

    def test_gradcheck_strided(self, rng):
        x = t(rng.normal(size=(1, 2, 3, 3)))
        w = t(rng.normal(size=(2, 2, 3, 3)) * 0.3)
        assert gradcheck(lambda a, ww: F.conv_transpose2d(a, ww, stride=2, padding=1), [x, w])

    def test_gradcheck_output_padding(self, rng):
        x = t(rng.normal(size=(1, 1, 3, 3)))
        w = t(rng.normal(size=(1, 2, 3, 3)) * 0.3)
        assert gradcheck(
            lambda a, ww: F.conv_transpose2d(a, ww, stride=2, padding=1, output_padding=1),
            [x, w],
        )

    def test_adjointness_with_conv(self, rng):
        """<conv(x), y> == <x, conv_transpose(y)> — the defining property."""
        x = rng.normal(size=(1, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        y = rng.normal(size=(1, 4, 6, 6))
        cx = F.conv2d(Tensor(x), Tensor(w), padding=1).data
        # conv weight (F, C, k) reinterpreted as transpose weight (F->C).
        cty = F.conv_transpose2d(Tensor(y), Tensor(w), padding=1).data
        assert np.allclose((cx * y).sum(), (x * cty).sum(), rtol=1e-9)

    def test_upsampling_shape(self):
        x = Tensor(np.zeros((1, 1, 8, 8)))
        w = Tensor(np.zeros((1, 1, 4, 4)))
        out = F.conv_transpose2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 1, 16, 16)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv_transpose2d(Tensor(np.ones((1, 3, 4, 4))), Tensor(np.ones((2, 4, 3, 3))))


class TestConv3d:
    def test_matches_separable_construction(self, rng):
        # A 3D conv with a kernel that is an outer product of 1D kernels
        # equals sequential correlation along each axis.
        x = rng.normal(size=(1, 1, 6, 6, 6))
        k1 = rng.normal(size=3)
        kernel = np.einsum("i,j,k->ijk", k1, k1, k1)[None, None]
        out = F.conv3d(Tensor(x), Tensor(kernel), padding=1).data
        from scipy.ndimage import correlate1d

        ref = x[0, 0]
        for axis in range(3):
            ref = correlate1d(ref, k1, axis=axis, mode="constant")
        assert np.allclose(out[0, 0], ref, atol=1e-9)

    def test_gradcheck(self, rng):
        x = t(rng.normal(size=(1, 1, 4, 4, 4)))
        w = t(rng.normal(size=(2, 1, 3, 3, 3)) * 0.3)
        assert gradcheck(lambda a, ww: F.conv3d(a, ww, padding=1), [x, w])

    def test_transpose3d_gradcheck(self, rng):
        x = t(rng.normal(size=(1, 2, 3, 3, 3)))
        w = t(rng.normal(size=(2, 1, 2, 2, 2)) * 0.3)
        assert gradcheck(lambda a, ww: F.conv_transpose3d(a, ww, stride=2), [x, w])

    def test_3d_output_shape(self):
        x = Tensor(np.zeros((2, 3, 8, 8, 8)))
        w = Tensor(np.zeros((5, 3, 3, 3, 3)))
        assert F.conv3d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4, 4)


class TestInputGradForms:
    """``conv_nd_input_grad`` runs the Fig. 9b gather at stride 1 with
    ``0 <= p < k`` and F <= C, and the GEMM + col2im scatter otherwise."""

    KERNELS_2D = [(1, 1), (3, 3), (5, 5), (7, 7), (3, 5)]
    KERNELS_3D = [(1, 1, 1), (3, 3, 3), (5, 5, 5), (7, 7, 7), (3, 5, 3)]

    @staticmethod
    def _pads(kernel):
        """p = 0 .. k-1 on every axis (clipped per axis), then p = k."""
        return [tuple(min(i, k - 1) for k in kernel) for i in range(max(kernel))] + [kernel]

    @staticmethod
    def _case(rng, n, f, c, x_spatial, kernel, padding, dtype=np.float64):
        g_spatial = tuple(s + 2 * p - k + 1 for s, p, k in zip(x_spatial, padding, kernel))
        g = rng.normal(size=(n, f) + g_spatial).astype(dtype)
        w = rng.normal(size=(f, c) + kernel).astype(dtype)
        return g, w, (n, c) + x_spatial

    @pytest.mark.parametrize("f,c", [(2, 4), (3, 3), (4, 2)], ids=["F<C", "F=C", "F>C"])
    @pytest.mark.parametrize("nd", [2, 3])
    def test_gather_matches_scatter(self, rng, nd, f, c):
        from repro.tensor.ops_conv import _input_grad_scatter, conv_nd_input_grad

        kernels = self.KERNELS_2D if nd == 2 else self.KERNELS_3D
        x_spatial = (7,) * nd
        ones = (1,) * nd
        for kernel in kernels:
            for padding in self._pads(kernel):
                for n in (1, 3):
                    g, w, x_shape = self._case(rng, n, f, c, x_spatial, kernel, padding)
                    got = conv_nd_input_grad(g, w, x_shape, 1, padding)
                    want = _input_grad_scatter(g, w, x_shape, ones, padding)
                    ctx = (kernel, padding, n)
                    assert got.shape == x_shape, ctx
                    if f > c or padding == kernel:
                        # Narrowing and over-padded calls keep the scatter.
                        assert np.array_equal(got, want), ctx
                    else:
                        err = np.abs(got - want).max() / np.abs(want).max()
                        assert err <= 1e-13, ctx

    @pytest.mark.parametrize("nd", [2, 3])
    def test_gather_float32_stays_float32(self, rng, nd):
        from repro.backend.precision import allclose_ulp
        from repro.tensor.ops_conv import _input_grad_scatter, conv_nd_input_grad

        kernel, padding = (5,) * nd, (2,) * nd
        g, w, x_shape = self._case(rng, 2, 3, 6, (9,) * nd, kernel, padding,
                                   dtype=np.float32)
        got = conv_nd_input_grad(g, w, x_shape, 1, padding)
        assert got.dtype == np.float32
        assert allclose_ulp(_input_grad_scatter(g, w, x_shape, (1,) * nd, padding), got)

    @pytest.fixture
    def col2im_calls(self, monkeypatch):
        from repro.tensor import ops_conv

        calls = []
        real = ops_conv._col2im

        def spy(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(ops_conv, "_col2im", spy)
        return calls

    def test_routing(self, rng, col2im_calls):
        from repro.tensor.ops_conv import conv_nd_input_grad

        def run(f, c, size, stride, padding):
            k = 5
            g_size = (size + 2 * padding - k) // stride + 1
            g = rng.normal(size=(1, f, g_size, g_size))
            w = rng.normal(size=(f, c, k, k))
            conv_nd_input_grad(g, w, (1, c, size, size), stride, padding)
            return len(col2im_calls)

        assert run(16, 64, 32, 1, 2) == 0  # DDnet dense-block input grad: gather
        assert run(16, 64, 32, 2, 2) == 1  # strided: scatter
        assert run(64, 1, 32, 1, 2) == 2   # narrowing, F > C: scatter

    @pytest.mark.parametrize("f,c,scatter", [(2, 3, False), (3, 2, True)],
                             ids=["gather", "scatter"])
    def test_gradcheck_conv2d_each_form(self, rng, col2im_calls, f, c, scatter):
        # conv input grad: g has F channels, x has C.
        x = t(rng.normal(size=(1, c, 5, 5)))
        w = t(rng.normal(size=(f, c, 3, 3)) * 0.3)
        assert gradcheck(lambda a, ww: F.conv2d(a, ww, padding=1), [x, w])
        assert bool(col2im_calls) == scatter

    @pytest.mark.parametrize("c_in,c_out,scatter", [(2, 3, False), (3, 2, True)],
                             ids=["gather", "scatter"])
    def test_gradcheck_conv_transpose2d_each_form(self, rng, col2im_calls,
                                                  c_in, c_out, scatter):
        x = t(rng.normal(size=(1, c_in, 4, 4)))
        w = t(rng.normal(size=(c_in, c_out, 3, 3)) * 0.3)
        b = t(rng.normal(size=c_out))
        assert gradcheck(
            lambda a, ww, bb: F.conv_transpose2d(a, ww, bb, padding=1), [x, w, b])
        assert bool(col2im_calls) == scatter

    def test_stride1_output_padding_gather(self, rng, col2im_calls):
        """At stride 1 the gather also covers an output_padding row."""
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 3, 3, 3))
        out = F.conv_transpose2d(Tensor(x), Tensor(w), padding=1, output_padding=1).data
        assert not col2im_calls
        # output_padding keeps one more row and column of the uncropped result.
        full = deconv2d_reference(x, w, 1, 0)
        assert np.allclose(out, full[:, :, 1:6, 1:6], atol=1e-10)
