"""The fused decoder-pair kernel (``unpool_deconv``).

The Fig. 9 decoder pair is bilinear ×2 un-pooling immediately followed
by the 5×5 stride-1 deconvolution.  DDnet runs it back-to-back in all
four decoder stages (when the global shortcut concat is disabled there
is literally nothing between them), so fusing them into one dispatch
removes an intermediate autograd tensor and gives backends a single
kernel boundary to optimize — the ``fast`` backend feeds the up-sampled
map straight into its FFT deconvolution.

The op is a pure composition of already-registered kernels, so its
reference form is bit-identical to the unfused call sequence and the
existing parity machinery covers it with no new golden data.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.backend.counters import OpCounts, conv_counts_nd, unpool_counts_nd
from repro.backend.registry import dispatch, register_kernel
from repro.tensor.ops_conv import _tuplify, conv_nd_input_grad, conv_transpose_nd
from repro.tensor.ops_pool import upsample_bilinear, upsample_bilinear_forward
from repro.tensor.tensor import Tensor, as_tensor


# ---------------------------------------------------------------------------
# Raw kernel (``reference`` backend; ``fast`` registers its FFT-based
# variant in repro.backend.fast)
# ---------------------------------------------------------------------------
def unpool_deconv_nd_forward(
    x: np.ndarray, w: np.ndarray, y_shape: Tuple[int, ...], scale, stride, padding
) -> np.ndarray:
    """Bilinear unpool then stride-``stride`` deconvolution (reference)."""
    up = upsample_bilinear_forward(x, scale)
    return conv_nd_input_grad(up, w, y_shape, stride, padding)


# ---------------------------------------------------------------------------
# Analytic per-dispatch count (composition of the component counts)
# ---------------------------------------------------------------------------
def _unpool_deconv_dispatch_counts(result, x, w, y_shape, scale=2,
                                   *args, **kwargs) -> OpCounts:
    deconv = conv_counts_nd(result.shape[2:], result.shape[1], x.shape[1],
                            w.shape[2:], batch=result.shape[0])
    up_spatial = tuple(int(s) * int(scale) for s in x.shape[2:])
    return deconv + unpool_counts_nd(up_spatial, x.shape[1], batch=x.shape[0])


register_kernel("unpool_deconv", "reference", kind="deconvolution",
                counts=_unpool_deconv_dispatch_counts)(unpool_deconv_nd_forward)


# ---------------------------------------------------------------------------
# Functional wrapper
# ---------------------------------------------------------------------------
def fused_unpool_deconv(x, w, bias=None, scale: int = 2, stride=1, padding=0,
                        output_padding=0) -> Tensor:
    """Decoder pair as one dispatch: ``deconv(unpool(x, scale), w)``.

    Under gradient mode this composes the two autograd ops (training
    numerics are untouched); under ``no_grad`` it collapses to a single
    ``unpool_deconv`` dispatch — one telemetry record, no intermediate
    tensor, and the backend's fused implementation.
    """
    from repro.tensor.tensor import is_grad_enabled

    x, w = as_tensor(x), as_tensor(w)
    if is_grad_enabled():
        up = upsample_bilinear(x, scale)
        return conv_transpose_nd(up, w, bias=bias, stride=stride,
                                 padding=padding, output_padding=output_padding)
    b = as_tensor(bias) if bias is not None else None
    nd = w.data.ndim - 2
    stride_t = _tuplify(stride, nd)
    padding_t = _tuplify(padding, nd)
    outpad_t = _tuplify(output_padding, nd)
    kernel = w.data.shape[2:]
    up_spatial = tuple(int(s) * int(scale) for s in x.data.shape[2:])
    out_spatial = tuple(
        (up_spatial[i] - 1) * stride_t[i] - 2 * padding_t[i] + kernel[i] + outpad_t[i]
        for i in range(nd)
    )
    if any(o <= 0 for o in out_spatial):
        raise ValueError(f"non-positive fused deconv output shape {out_spatial}")
    y_shape = (x.data.shape[0], w.data.shape[1]) + out_spatial
    out = dispatch("unpool_deconv", x.data, w.data, y_shape, scale,
                   stride_t, padding_t)
    if b is not None:
        out = out + b.data.reshape((1, -1) + (1,) * nd)
    return Tensor._make(out, (), None)

