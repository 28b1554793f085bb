"""Convolution and transposed-convolution autograd ops (2D and 3D).

The forward path uses the classic ``im2col`` lowering: patches are
gathered with :func:`numpy.lib.stride_tricks.sliding_window_view` (a
view, no copy, per the scientific-python guide) and the convolution
becomes a single large matmul that BLAS executes with near-peak
throughput.  The transposed convolution — the paper's expensive
"deconvolution" kernel (§4.2.1, Fig. 9) — is implemented as the exact
adjoint (``col2im`` scatter-add), which is precisely the *refactored*
inverse-coefficient-mapping formulation the paper uses for its OpenCL
kernels.  A literal, naive deconvolution (one scatter per partial sum)
lives in :mod:`repro.hetero.kernels` for the Fig. 9 / Table 7
baseline-vs-refactored comparison.

Execution goes through the :mod:`repro.backend` registry: the raw
kernels below are registered as the ``reference`` backend for the
``conv`` / ``deconv`` / ``conv_weight_grad`` / ``conv_bias_act`` ops
and the autograd wrappers call :func:`repro.backend.registry.dispatch`,
so other backends (:mod:`repro.backend.fast`) and per-dispatch
telemetry slot in without touching this module.

Weight layouts follow PyTorch:

- conv:            ``(C_out, C_in, *kernel)``
- conv transpose:  ``(C_in, C_out, *kernel)``
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.backend.counters import OpCounts, conv_counts_nd, leaky_relu_counts
from repro.backend.registry import dispatch, register_kernel
from repro.tensor.tensor import Tensor, as_tensor

IntOrTuple = int


def _tuplify(v, n: int) -> Tuple[int, ...]:
    if isinstance(v, (tuple, list)):
        if len(v) != n:
            raise ValueError(f"expected {n} values, got {v!r}")
        return tuple(int(x) for x in v)
    return (int(v),) * n


def _pad_spatial(x: np.ndarray, padding: Tuple[int, ...]) -> np.ndarray:
    """Zero-pad the trailing spatial axes of an (N, C, *spatial) array."""
    if all(p == 0 for p in padding):
        return x
    pads = [(0, 0), (0, 0)] + [(p, p) for p in padding]
    return np.pad(x, pads, mode="constant")


def _out_size(size: int, k: int, s: int, p: int) -> int:
    return (size + 2 * p - k) // s + 1


def _im2col(xp: np.ndarray, kernel: Tuple[int, ...], stride: Tuple[int, ...]) -> np.ndarray:
    """Gather sliding patches from a padded (N, C, *spatial) array.

    Returns an array of shape ``(N, *out_spatial, C, *kernel)`` that is a
    strided view when possible (copied implicitly by the subsequent
    reshape/matmul).
    """
    nd = len(kernel)
    axes = tuple(range(2, 2 + nd))
    win = sliding_window_view(xp, kernel, axis=axes)
    # win: (N, C, *full_out, *kernel); apply stride on the out axes.
    slicer = (slice(None), slice(None)) + tuple(slice(None, None, s) for s in stride)
    win = win[slicer]
    # Move channel after spatial so patches flatten to (C * prod(kernel)).
    order = (0,) + tuple(range(2, 2 + nd)) + (1,) + tuple(range(2 + nd, 2 + 2 * nd))
    return win.transpose(order)


def _col2im(
    cols: np.ndarray,
    xp_shape: Tuple[int, ...],
    kernel: Tuple[int, ...],
    stride: Tuple[int, ...],
    out_spatial: Tuple[int, ...],
) -> np.ndarray:
    """Scatter-add patches back to a padded (N, C, *spatial) array.

    ``cols`` has shape ``(N, *out_spatial, C, *kernel)``.  The loop runs
    over kernel offsets only (≤ 125 iterations for a 5³ kernel); each
    iteration is a fully vectorized strided-slice add.
    """
    nd = len(kernel)
    xp = np.zeros(xp_shape, dtype=cols.dtype)
    # (N, C, *out_spatial, *kernel) ordering for easy slicing.
    order = (0, 1 + nd) + tuple(range(1, 1 + nd)) + tuple(range(2 + nd, 2 + 2 * nd))
    cols_nc = cols.transpose(order)
    for offset in np.ndindex(*kernel):
        slicer = (slice(None), slice(None)) + tuple(
            slice(o, o + out * s, s) for o, out, s in zip(offset, out_spatial, stride)
        )
        xp[slicer] += cols_nc[(slice(None), slice(None)) + tuple(slice(None) for _ in range(nd)) + offset]
    return xp


def _unpad_spatial(xp: np.ndarray, padding: Tuple[int, ...]) -> np.ndarray:
    if all(p == 0 for p in padding):
        return xp
    slicer = (slice(None), slice(None)) + tuple(
        slice(p, xp.shape[2 + i] - p) for i, p in enumerate(padding)
    )
    return xp[slicer]


# ---------------------------------------------------------------------------
# Raw (non-autograd) kernels, shared by forward and backward passes.
# These are the registry's ``reference`` backend.
# ---------------------------------------------------------------------------
def conv_nd_forward(
    x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray], stride, padding,
    want_cols: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray], Tuple[int, ...]]:
    """Run an N-d convolution; also return the im2col buffer for reuse.

    ``want_cols=False`` is the inference fast path: the im2col buffer —
    by far the largest intermediate (``C·∏kernel`` times the output
    size) — is released as soon as the matmul finishes instead of being
    returned for the weight-gradient pass, so pure-inference peak
    memory stays flat.
    """
    nd = w.ndim - 2
    stride = _tuplify(stride, nd)
    padding = _tuplify(padding, nd)
    xp = _pad_spatial(x, padding)
    kernel = w.shape[2:]
    out_spatial = tuple(
        _out_size(x.shape[2 + i], kernel[i], stride[i], padding[i]) for i in range(nd)
    )
    cols = _im2col(xp, kernel, stride)  # (N, *out, C, *k)
    n = x.shape[0]
    f = w.shape[0]
    cols2 = cols.reshape(n * int(np.prod(out_spatial)), -1)
    w2 = w.reshape(f, -1)
    out = cols2 @ w2.T
    if not want_cols:
        cols2 = None  # free the im2col buffer immediately (inference)
    if bias is not None:
        out += bias
    out = out.reshape((n,) + out_spatial + (f,))
    # -> (N, F, *out)
    perm = (0, 1 + nd) + tuple(range(1, 1 + nd))
    return np.ascontiguousarray(out.transpose(perm)), cols2, out_spatial


def conv_nd_input_grad(
    g: np.ndarray, w: np.ndarray, x_shape: Tuple[int, ...], stride, padding
) -> np.ndarray:
    """Gradient of conv w.r.t. its input (also = transposed-conv forward).

    This *is* the paper's refactored deconvolution (Fig. 9b): every
    output element gathers its contributing inputs and writes once.
    """
    nd = w.ndim - 2
    stride = _tuplify(stride, nd)
    padding = _tuplify(padding, nd)
    kernel = w.shape[2:]
    n, f = g.shape[0], g.shape[1]
    out_spatial = g.shape[2:]
    w2 = w.reshape(f, -1)
    # (N, *out, F)
    perm = (0,) + tuple(range(2, 2 + nd)) + (1,)
    g_cols = g.transpose(perm).reshape(n * int(np.prod(out_spatial)), f)
    cols = (g_cols @ w2).reshape((n,) + tuple(out_spatial) + (x_shape[1],) + kernel)
    xp_shape = (n, x_shape[1]) + tuple(x_shape[2 + i] + 2 * padding[i] for i in range(nd))
    xp = _col2im(cols, xp_shape, kernel, stride, tuple(out_spatial))
    return _unpad_spatial(xp, padding)


def conv_nd_weight_grad(
    cols2: np.ndarray, g: np.ndarray, w_shape: Tuple[int, ...]
) -> np.ndarray:
    """Gradient of conv w.r.t. weights, from the saved im2col buffer."""
    nd = len(w_shape) - 2
    f = w_shape[0]
    perm = (0,) + tuple(range(2, 2 + nd)) + (1,)
    g_cols = g.transpose(perm).reshape(-1, f)
    return (g_cols.T @ cols2).reshape(w_shape)


def conv_bias_act_nd_forward(
    x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray], stride, padding,
    negative_slope: float = 0.01,
) -> np.ndarray:
    """Convolution + bias + Leaky-ReLU as one kernel (inference form).

    The reference composes the conv kernel and the activation; the
    fast backend applies the activation in place on its conv output.
    """
    out, _, _ = conv_nd_forward(x, w, bias, stride, padding, want_cols=False)
    return np.where(out > 0, out, negative_slope * out)


# ---------------------------------------------------------------------------
# Analytic per-dispatch counts (Table 6 conventions, from real shapes)
# ---------------------------------------------------------------------------
def _conv_dispatch_counts(result, x, w, *args, **kwargs) -> OpCounts:
    out = result[0]
    return conv_counts_nd(out.shape[2:], out.shape[1], w.shape[1], w.shape[2:],
                          batch=out.shape[0])


def _deconv_dispatch_counts(result, g, w, *args, **kwargs) -> OpCounts:
    return conv_counts_nd(result.shape[2:], result.shape[1], g.shape[1],
                          w.shape[2:], batch=result.shape[0])


def _weight_grad_dispatch_counts(result, cols2, g, w_shape, **kwargs) -> OpCounts:
    macs = cols2.shape[0] * cols2.shape[1] * int(w_shape[0])
    stores = 1
    for s in w_shape:
        stores *= int(s)
    return OpCounts(loads=2 * macs, stores=stores, flops=2 * macs)


def _conv_bias_act_dispatch_counts(result, x, w, *args, **kwargs) -> OpCounts:
    conv = conv_counts_nd(result.shape[2:], result.shape[1], w.shape[1],
                          w.shape[2:], batch=result.shape[0])
    return conv + leaky_relu_counts(result.size)


register_kernel("conv", "reference", kind="convolution",
                counts=_conv_dispatch_counts)(conv_nd_forward)
register_kernel("deconv", "reference", kind="deconvolution",
                counts=_deconv_dispatch_counts)(conv_nd_input_grad)
register_kernel("conv_weight_grad", "reference", kind="convolution",
                counts=_weight_grad_dispatch_counts)(conv_nd_weight_grad)
register_kernel("conv_bias_act", "reference", kind="convolution",
                counts=_conv_bias_act_dispatch_counts)(conv_bias_act_nd_forward)


# ---------------------------------------------------------------------------
# Autograd ops
# ---------------------------------------------------------------------------
def conv_nd(x, w, bias=None, stride=1, padding=0, backend=None) -> Tensor:
    """N-d convolution over an ``(N, C, *spatial)`` tensor."""
    x, w = as_tensor(x), as_tensor(w)
    b = as_tensor(bias) if bias is not None else None
    nd = w.data.ndim - 2
    if x.data.ndim != nd + 2:
        raise ValueError(
            f"conv{nd}d expects {nd + 2}-d input (N, C, *spatial); got shape {x.shape}"
        )
    if x.data.shape[1] != w.data.shape[1]:
        raise ValueError(
            f"input channels {x.data.shape[1]} != weight channels {w.data.shape[1]}"
        )
    from repro.tensor.tensor import is_grad_enabled

    # Retain the im2col buffer only when a weight gradient will need it;
    # under no_grad (inference) the conv records no parents and the
    # buffer dies with this call frame.
    needs_w_grad = is_grad_enabled() and w.requires_grad
    out_data, cols2, _ = dispatch(
        "conv", x.data, w.data, b.data if b is not None else None, stride, padding,
        want_cols=needs_w_grad, backend=backend,
    )
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        if x.requires_grad:
            x._accumulate(dispatch("deconv", g, w.data, x.data.shape,
                                   stride, padding, backend=backend))
        if w.requires_grad and cols2 is not None:
            w._accumulate(dispatch("conv_weight_grad", cols2, g, w.data.shape,
                                   backend=backend))
        if b is not None and b.requires_grad:
            axes = (0,) + tuple(range(2, g.ndim))
            b._accumulate(g.sum(axis=axes))

    return Tensor._make(out_data, parents, backward)


def conv_transpose_nd(x, w, bias=None, stride=1, padding=0, output_padding=0,
                      backend=None) -> Tensor:
    """N-d transposed convolution ("deconvolution" in the paper).

    ``w`` has shape ``(C_in, C_out, *kernel)``.  Output spatial size is
    ``(in - 1) * stride - 2 * padding + kernel + output_padding``.
    """
    x, w = as_tensor(x), as_tensor(w)
    b = as_tensor(bias) if bias is not None else None
    nd = w.data.ndim - 2
    stride_t = _tuplify(stride, nd)
    padding_t = _tuplify(padding, nd)
    outpad_t = _tuplify(output_padding, nd)
    if x.data.shape[1] != w.data.shape[0]:
        raise ValueError(
            f"input channels {x.data.shape[1]} != weight in-channels {w.data.shape[0]}"
        )
    kernel = w.data.shape[2:]
    out_spatial = tuple(
        (x.data.shape[2 + i] - 1) * stride_t[i] - 2 * padding_t[i] + kernel[i] + outpad_t[i]
        for i in range(nd)
    )
    if any(o <= 0 for o in out_spatial):
        raise ValueError(f"non-positive transposed-conv output shape {out_spatial}")
    # Forward is exactly conv_nd_input_grad (the gather / Fig. 9b
    # formulation) with the weight seen as a (C_in=F, C_out, *k) conv
    # filter and x playing the output-grad role.
    y_shape = (x.data.shape[0], w.data.shape[1]) + out_spatial
    out_data = dispatch("deconv", x.data, w.data, y_shape, stride_t, padding_t,
                        backend=backend)
    if b is not None:
        out_data = out_data + b.data.reshape((1, -1) + (1,) * nd)
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        if x.requires_grad:
            gx, _, _ = dispatch("conv", g, w.data, None, stride_t, padding_t,
                                want_cols=False, backend=backend)
            # conv output spatial must match x; guaranteed when
            # output_padding < stride (checked below on entry).
            x._accumulate(gx[(slice(None), slice(None)) + tuple(slice(0, s) for s in x.data.shape[2:])])
        if w.requires_grad:
            # dL/dw = weight-grad of the adjoint conv: patches from g,
            # outputs from x.
            gp = _pad_spatial(g, padding_t)
            cols = _im2col(gp, kernel, stride_t)
            # With output_padding > 0 the window count can exceed the
            # input size by one; keep exactly one window per input site.
            cols = cols[(slice(None),) + tuple(slice(0, s) for s in x.data.shape[2:])]
            cols2 = cols.reshape(x.data.shape[0] * int(np.prod(x.data.shape[2:])), -1)
            w._accumulate(dispatch("conv_weight_grad", cols2, x.data, w.data.shape,
                                   backend=backend))
        if b is not None and b.requires_grad:
            axes = (0,) + tuple(range(2, g.ndim))
            b._accumulate(g.sum(axis=axes))

    return Tensor._make(out_data, parents, backward)


# Convenience wrappers -------------------------------------------------------
def conv2d(x, w, bias=None, stride=1, padding=0, backend=None) -> Tensor:
    return conv_nd(x, w, bias=bias, stride=stride, padding=padding, backend=backend)


def conv3d(x, w, bias=None, stride=1, padding=0, backend=None) -> Tensor:
    return conv_nd(x, w, bias=bias, stride=stride, padding=padding, backend=backend)


def conv_transpose2d(x, w, bias=None, stride=1, padding=0, output_padding=0,
                     backend=None) -> Tensor:
    return conv_transpose_nd(x, w, bias=bias, stride=stride, padding=padding,
                             output_padding=output_padding, backend=backend)


def conv_transpose3d(x, w, bias=None, stride=1, padding=0, output_padding=0,
                     backend=None) -> Tensor:
    return conv_transpose_nd(x, w, bias=bias, stride=stride, padding=padding,
                             output_padding=output_padding, backend=backend)
