"""Fused decoder-pair and batched multi-scan kernels.

Two composite ops that exist because the serving hot path repeats the
same dispatch patterns thousands of times per scan:

- ``unpool_deconv`` — the Fig. 9 decoder pair: bilinear ×2 un-pooling
  immediately followed by the 5×5 stride-1 deconvolution.  DDnet runs
  this back-to-back in all four decoder stages (when the global
  shortcut concat is disabled there is literally nothing between them),
  so fusing them into one dispatch removes an intermediate autograd
  tensor and gives backends a single kernel boundary to optimize — the
  ``fast`` backend feeds the up-sampled map straight into its FFT
  deconvolution.
- ``conv_batch`` — multi-scan convolution for a serving batch.  The
  ``reference`` entry runs the *honest* scan-at-a-time loop (exactly
  what per-request dispatch costs today); the ``fast`` entry
  (:mod:`repro.backend.fast`) stacks the scans into one batched call so
  the filter transform and dispatch overhead are amortized across the
  batch — the Table 7 rationale applied to PR 6's per-stage batching.

Both ops are pure compositions of already-registered kernels, so their
reference forms are bit-identical to the unfused call sequences and the
existing parity machinery covers them with no new golden data.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.backend.counters import OpCounts, conv_counts_nd, unpool_counts_nd
from repro.backend.registry import dispatch, register_kernel
from repro.tensor.ops_conv import (
    _tuplify,
    conv_bias_act_nd_forward,
    conv_nd_forward,
    conv_nd_input_grad,
    conv_transpose_nd,
)
from repro.tensor.ops_pool import upsample_bilinear, upsample_bilinear_forward
from repro.tensor.tensor import Tensor, as_tensor


# ---------------------------------------------------------------------------
# Raw kernels (``reference`` backend; ``fast`` registers its FFT-based
# variants in repro.backend.fast)
# ---------------------------------------------------------------------------
def unpool_deconv_nd_forward(
    x: np.ndarray, w: np.ndarray, y_shape: Tuple[int, ...], scale, stride, padding
) -> np.ndarray:
    """Bilinear unpool then stride-``stride`` deconvolution (reference)."""
    up = upsample_bilinear_forward(x, scale)
    return conv_nd_input_grad(up, w, y_shape, stride, padding)


def conv_batch_nd_forward(
    xs: Sequence[np.ndarray], w: np.ndarray, bias: Optional[np.ndarray],
    stride, padding, negative_slope: Optional[float] = None,
) -> np.ndarray:
    """Scan-at-a-time convolution over a serving batch (reference).

    ``xs`` is a sequence of same-shape ``(C, *spatial)`` scans; the
    result is stacked ``(B, F, *out)``.  This loop *is* the baseline
    being optimized: one conv call (and one filter flatten) per scan.
    """
    outs = []
    for x in xs:
        xb = np.asarray(x)[None]
        if negative_slope is not None:
            out = conv_bias_act_nd_forward(xb, w, bias, stride, padding,
                                           negative_slope)
        else:
            out, _, _ = conv_nd_forward(xb, w, bias, stride, padding,
                                        want_cols=False)
        outs.append(out[0])
    return np.stack(outs)


# ---------------------------------------------------------------------------
# Analytic per-dispatch counts (composition of the component counts)
# ---------------------------------------------------------------------------
def _unpool_deconv_dispatch_counts(result, x, w, y_shape, scale=2,
                                   *args, **kwargs) -> OpCounts:
    deconv = conv_counts_nd(result.shape[2:], result.shape[1], x.shape[1],
                            w.shape[2:], batch=result.shape[0])
    up_spatial = tuple(int(s) * int(scale) for s in x.shape[2:])
    return deconv + unpool_counts_nd(up_spatial, x.shape[1], batch=x.shape[0])


def _conv_batch_dispatch_counts(result, xs, w, *args, **kwargs) -> OpCounts:
    return conv_counts_nd(result.shape[2:], result.shape[1], w.shape[1],
                          w.shape[2:], batch=result.shape[0])


register_kernel("unpool_deconv", "reference", kind="deconvolution",
                counts=_unpool_deconv_dispatch_counts)(unpool_deconv_nd_forward)
register_kernel("conv_batch", "reference", kind="convolution",
                counts=_conv_batch_dispatch_counts)(conv_batch_nd_forward)


# ---------------------------------------------------------------------------
# Functional wrappers
# ---------------------------------------------------------------------------
def fused_unpool_deconv(x, w, bias=None, scale: int = 2, stride=1, padding=0,
                        output_padding=0, backend=None) -> Tensor:
    """Decoder pair as one dispatch: ``deconv(unpool(x, scale), w)``.

    Under gradient mode this composes the two autograd ops (training
    numerics are untouched); under ``no_grad`` it collapses to a single
    ``unpool_deconv`` dispatch — one telemetry record, no intermediate
    tensor, and the backend's fused implementation.
    """
    from repro.tensor.tensor import is_grad_enabled

    x, w = as_tensor(x), as_tensor(w)
    if is_grad_enabled():
        up = upsample_bilinear(x, scale, backend=backend)
        return conv_transpose_nd(up, w, bias=bias, stride=stride,
                                 padding=padding,
                                 output_padding=output_padding, backend=backend)
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
                   stride_t, padding_t, backend=backend)
    if b is not None:
        out = out + b.data.reshape((1, -1) + (1,) * nd)
    return Tensor._make(out, (), None)


def conv_batch(xs, w, bias=None, stride=1, padding=0,
               negative_slope: Optional[float] = None, backend=None) -> Tensor:
    """Multi-scan convolution: a batch of ``(C, *spatial)`` scans in one
    dispatch, returned stacked as ``(B, F, *out)``.

    Inference-only (serving batches never backprop); raises under
    gradient mode to keep the training path on the autograd conv.
    """
    from repro.tensor.tensor import is_grad_enabled

    if is_grad_enabled():
        raise RuntimeError("conv_batch is an inference-only dispatch; "
                           "wrap the call in no_grad() or use conv_nd")
    arrays = [x.data if isinstance(x, Tensor) else np.asarray(x) for x in xs]
    w = as_tensor(w)
    b = as_tensor(bias) if bias is not None else None
    out = dispatch("conv_batch", arrays, w.data,
                   b.data if b is not None else None, stride, padding,
                   negative_slope, backend=backend)
    return Tensor._make(out, (), None)
