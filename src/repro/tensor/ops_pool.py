"""Pooling and un-pooling (bilinear up-sampling) autograd ops.

DDnet down-samples with 3×3/stride-2 max pooling after every dense
block and up-samples with scale-2 bilinear interpolation ("un-pooling",
§2.2.2).  The up-sampler is expressed as two small interpolation-matrix
products per axis — a linear operator — so its adjoint (the backward
pass) is just the transposed products.

The raw forward kernels are registered with the :mod:`repro.backend`
registry (ops ``maxpool`` / ``avgpool`` / ``unpool``) and the autograd
wrappers dispatch through it; ``want_indices=False`` is the max-pool
inference fast path: a running maximum over the window's strided views,
without the window copy and argmax bookkeeping the backward pass needs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.backend.counters import OpCounts, pool_counts_nd, unpool_counts_nd
from repro.backend.registry import dispatch, register_kernel
from repro.tensor.tensor import Tensor, as_tensor
from repro.tensor.ops_conv import _pad_spatial, _tuplify


# ---------------------------------------------------------------------------
# Raw kernels (the registry's ``reference`` backend)
# ---------------------------------------------------------------------------
def max_pool_nd_forward(
    x: np.ndarray, kernel=2, stride=None, padding=0, want_indices: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray], Tuple[int, ...]]:
    """N-d max pooling; returns ``(out, flat_idx, padded_shape)``.

    ``flat_idx`` maps every output cell to the flat spatial index of its
    maximum in the padded input — the backward pass's scatter targets.
    ``want_indices=False`` (inference) skips that bookkeeping entirely
    (:func:`_running_max`) and returns ``None`` in its place.
    """
    nd = x.ndim - 2
    kernel_t = _tuplify(kernel, nd)
    stride_t = _tuplify(stride if stride is not None else kernel, nd)
    padding_t = _tuplify(padding, nd)
    if any(p == 0 for p in padding_t):
        xp = x
        if any(p != 0 for p in padding_t):
            raise ValueError("mixed zero/non-zero pooling padding unsupported")
    else:
        pads = [(0, 0), (0, 0)] + [(p, p) for p in padding_t]
        xp = np.pad(x, pads, mode="constant", constant_values=-np.inf)
    if not want_indices:
        return _running_max(xp, kernel_t, stride_t), None, xp.shape
    win = sliding_window_view(xp, kernel_t, axis=tuple(range(2, 2 + nd)))
    slicer = (slice(None), slice(None)) + tuple(slice(None, None, s) for s in stride_t)
    win = win[slicer]  # (N, C, *out, *kernel)
    flat = win.reshape(win.shape[: 2 + nd] + (-1,))
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    out_spatial = out_data.shape[2:]

    # Precompute, per output cell, the padded-input flat index of its max.
    k_offsets = np.unravel_index(arg, kernel_t)  # nd arrays of shape (N,C,*out)
    grids = np.meshgrid(*[np.arange(o) for o in out_spatial], indexing="ij")
    in_idx = []
    for d in range(nd):
        base = grids[d] * stride_t[d]
        in_idx.append(base[None, None] + k_offsets[d])
    # Flatten spatial index into padded input.
    sp_shape = xp.shape[2:]
    flat_idx = np.zeros(arg.shape, dtype=np.int64)
    for d in range(nd):
        flat_idx = flat_idx * sp_shape[d] + in_idx[d]
    return np.ascontiguousarray(out_data), flat_idx, xp.shape


def _running_max(
    xp: np.ndarray, kernel_t: Tuple[int, ...], stride_t: Tuple[int, ...]
) -> np.ndarray:
    """Window max as a running ``np.maximum`` over the k^d strided views.

    One pass over the output per tap, taps in the window's row-major
    order, so ties between ±0.0 resolve as a max over the flattened
    window does; no copy of the sliding windows is made.
    """
    out_sp = tuple((n - k) // s + 1 for n, k, s in zip(xp.shape[2:], kernel_t, stride_t))
    taps = (
        xp[(slice(None), slice(None)) + tuple(
            slice(o, o + (n - 1) * s + 1, s) for o, n, s in zip(offset, out_sp, stride_t))]
        for offset in np.ndindex(*kernel_t)
    )
    out = np.array(next(taps))
    for tap in taps:
        np.maximum(out, tap, out=out)
    return out


def avg_pool_nd_forward(x: np.ndarray, kernel=2, stride=None, padding=0) -> np.ndarray:
    """N-d average pooling (count includes padding, like PyTorch default)."""
    nd = x.ndim - 2
    kernel_t = _tuplify(kernel, nd)
    stride_t = _tuplify(stride if stride is not None else kernel, nd)
    padding_t = _tuplify(padding, nd)
    xp = _pad_spatial(x, padding_t)
    axes = tuple(range(2, 2 + nd))
    win = sliding_window_view(xp, kernel_t, axis=axes)
    slicer = (slice(None), slice(None)) + tuple(slice(None, None, s) for s in stride_t)
    win = win[slicer]
    out_data = win.reshape(win.shape[: 2 + nd] + (-1,)).mean(axis=-1)
    return np.ascontiguousarray(out_data)


@lru_cache(maxsize=64)
def _bilinear_matrix(n_in: int, scale: int) -> np.ndarray:
    """Interpolation matrix mapping ``n_in`` samples to ``n_in*scale``.

    Uses the half-pixel (align_corners=False) convention, clamped at the
    borders — identical to ``torch.nn.Upsample(mode='bilinear')``.
    """
    n_out = n_in * scale
    out_pos = (np.arange(n_out) + 0.5) / scale - 0.5
    lo = np.floor(out_pos).astype(int)
    frac = out_pos - lo
    lo_c = np.clip(lo, 0, n_in - 1)
    hi_c = np.clip(lo + 1, 0, n_in - 1)
    m = np.zeros((n_out, n_in))
    m[np.arange(n_out), lo_c] += 1.0 - frac
    m[np.arange(n_out), hi_c] += frac
    return m


def upsample_bilinear_forward(x: np.ndarray, scale: int = 2) -> np.ndarray:
    """Separable linear up-sampling of the trailing spatial axes.

    Interpolation runs in float64 (the matrix's dtype) for every input,
    but sub-64-bit float inputs get the result cast back to their own
    dtype: reduced-precision inference must stay reduced-precision
    through the decoder instead of silently re-widening at the first
    un-pool.  float64 inputs are untouched (bit-identical path).
    """
    nd = x.ndim - 2
    out = x
    # Apply the interpolation matrix along each spatial axis in turn via
    # tensordot; axes are restored with moveaxis.
    for d in range(nd):
        m = _bilinear_matrix(x.shape[2 + d], scale)
        out = np.moveaxis(np.tensordot(m, out, axes=(1, 2 + d)), 0, 2 + d)
    if x.dtype.kind == "f" and x.dtype.itemsize < 8 and out.dtype != x.dtype:
        out = out.astype(x.dtype)
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# Analytic per-dispatch counts
# ---------------------------------------------------------------------------
def _maxpool_dispatch_counts(result, x, kernel=2, *args, **kwargs) -> OpCounts:
    out = result[0]
    return pool_counts_nd(out.shape[2:], out.shape[1], kernel, batch=out.shape[0])


def _avgpool_dispatch_counts(result, x, kernel=2, *args, **kwargs) -> OpCounts:
    return pool_counts_nd(result.shape[2:], result.shape[1], kernel,
                          batch=result.shape[0])


def _unpool_dispatch_counts(result, x, scale=2, **kwargs) -> OpCounts:
    return unpool_counts_nd(result.shape[2:], result.shape[1],
                            batch=result.shape[0])


register_kernel("maxpool", "reference", kind="pooling",
                counts=_maxpool_dispatch_counts)(max_pool_nd_forward)
register_kernel("avgpool", "reference", kind="pooling",
                counts=_avgpool_dispatch_counts)(avg_pool_nd_forward)
register_kernel("unpool", "reference", kind="unpooling",
                counts=_unpool_dispatch_counts)(upsample_bilinear_forward)


# ---------------------------------------------------------------------------
# Autograd ops
# ---------------------------------------------------------------------------
def max_pool_nd(x, kernel=2, stride=None, padding=0) -> Tensor:
    """N-d max pooling over an ``(N, C, *spatial)`` tensor.

    Padding uses ``-inf`` so padded cells never win the max.
    """
    x = as_tensor(x)
    nd = x.data.ndim - 2
    stride_t = _tuplify(stride if stride is not None else kernel, nd)
    padding_t = _tuplify(padding, nd)
    from repro.tensor.tensor import is_grad_enabled

    # Argmax indices exist only for the backward scatter; inference
    # skips them the same way conv skips its im2col buffer.
    want_indices = is_grad_enabled() and x.requires_grad
    out_data, flat_idx, xp_shape = dispatch(
        "maxpool", x.data, kernel, stride, padding,
        want_indices=want_indices)
    sp_shape = xp_shape[2:]

    def backward(g):
        gp_flat = np.zeros(xp_shape[:2] + (int(np.prod(sp_shape)),), dtype=g.dtype)
        n, c = xp_shape[:2]
        fi = flat_idx.reshape(n, c, -1)
        np.add.at(
            gp_flat,
            (np.arange(n)[:, None, None], np.arange(c)[None, :, None], fi),
            g.reshape(n, c, -1),
        )
        gp = gp_flat.reshape(xp_shape)
        if any(p != 0 for p in padding_t):
            slicer2 = (slice(None), slice(None)) + tuple(
                slice(p, gp.shape[2 + i] - p) for i, p in enumerate(padding_t)
            )
            gp = gp[slicer2]
        x._accumulate(gp)

    return Tensor._make(out_data, (x,), backward)


def avg_pool_nd(x, kernel=2, stride=None, padding=0) -> Tensor:
    """N-d average pooling (count includes padding, like PyTorch default)."""
    x = as_tensor(x)
    nd = x.data.ndim - 2
    kernel_t = _tuplify(kernel, nd)
    stride_t = _tuplify(stride if stride is not None else kernel, nd)
    padding_t = _tuplify(padding, nd)
    count = float(np.prod(kernel_t))
    out_data = dispatch("avgpool", x.data, kernel, stride, padding)
    out_spatial = out_data.shape[2:]
    xp_shape = x.data.shape[:2] + tuple(
        x.data.shape[2 + i] + 2 * padding_t[i] for i in range(nd)
    )

    def backward(g):
        gp = np.zeros(xp_shape, dtype=g.dtype)
        gshare = g / count
        for offset in np.ndindex(*kernel_t):
            slicer2 = (slice(None), slice(None)) + tuple(
                slice(o, o + out * s, s) for o, out, s in zip(offset, out_spatial, stride_t)
            )
            gp[slicer2] += gshare
        if any(p != 0 for p in padding_t):
            slicer3 = (slice(None), slice(None)) + tuple(
                slice(p, gp.shape[2 + i] - p) for i, p in enumerate(padding_t)
            )
            gp = gp[slicer3]
        x._accumulate(gp)

    return Tensor._make(out_data, (x,), backward)


def global_avg_pool(x) -> Tensor:
    """Average over all spatial axes, keeping (N, C)."""
    x = as_tensor(x)
    axes = tuple(range(2, x.data.ndim))
    return x.mean(axis=axes)


def upsample_bilinear(x, scale: int = 2) -> Tensor:
    """Scale the trailing spatial axes by ``scale`` with separable
    linear interpolation (bilinear in 2D, trilinear in 3D).

    This is the DDnet "un-pooling" operation (§2.2.2).
    """
    x = as_tensor(x)
    nd = x.data.ndim - 2
    in_spatial = x.data.shape[2:]
    out = dispatch("unpool", x.data, scale)

    def backward(g):
        gx = g
        for d in range(nd):
            m = _bilinear_matrix(in_spatial[d], scale)
            gx = np.moveaxis(np.tensordot(m.T, gx, axes=(1, 2 + d)), 0, 2 + d)
        x._accumulate(gx)

    return Tensor._make(out, (x,), backward)


def upsample_nearest(x, scale: int = 2) -> Tensor:
    """Nearest-neighbour up-sampling of trailing spatial axes."""
    x = as_tensor(x)
    nd = x.data.ndim - 2
    out = x.data
    for d in range(nd):
        out = np.repeat(out, scale, axis=2 + d)

    def backward(g):
        gx = g
        for d in range(nd):
            sh = gx.shape
            new = sh[: 2 + d] + (sh[2 + d] // scale, scale) + sh[3 + d :]
            gx = gx.reshape(new).sum(axis=3 + d)
        x._accumulate(gx)

    return Tensor._make(np.ascontiguousarray(out), (x,), backward)
