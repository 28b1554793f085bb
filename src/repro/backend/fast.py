"""The ``fast`` kernel backend: FFT convolution and deconvolution.

``fast`` trades ``reference``'s exact evaluation order for an
algorithmic win and is held to the **ulp tier** instead
(:mod:`repro.backend.precision`): results must match reference within a
dtype-aware relative tolerance, which the parity property grid and
``repro bench kernels`` enforce on every run.

What it does differently:

- **FFT convolution** — stride-1 convolutions whose kernels have at
  least :data:`FFT_CROSSOVER_ELEMS` taps (the 5×5 DDnet layers, any 3-d
  kernel) are executed as an rfftn-domain pointwise contraction: the
  valid cross-correlation is the ``k-1``-offset slice of the full
  linear convolution of the input with the spatially flipped kernel.
  The channel contraction runs as one complex batched matmul
  ``(L,N,C)@(L,C,F)`` over the frequency bins, and FFT lengths are
  rounded up to 5-smooth sizes (:func:`next_fast_len`).  The transforms
  are ``scipy.fft``'s: unlike ``np.fft``, its float32 transforms run in
  single precision (complex64), 3.4–3.8× faster than ``np.fft``'s on
  the DDnet shapes (table in docs/backends.md), and it defaults to one
  worker thread.
- **filter-transform LRU cache** — the kernel's frequency-domain image
  is cached per weight array (identity/shape/dtype/fft-shape keyed,
  ``no_grad`` only) so repeated inference — and every scan of a
  serving batch — pays the filter FFT once.  Invalidated through
  :func:`repro.backend.registry.clear_kernel_caches` like every other
  weight-derived cache.
- **FFT deconvolution** — the stride-1 transposed convolution is the
  *full* linear convolution of the gradient with the (unflipped)
  kernel, contracted over the input-channel axis; same plan cache.
- **fused unpool + deconvolution** (``unpool_deconv``) — the Fig. 9
  decoder pair feeds the up-sampled map straight into the FFT
  deconvolution (see :mod:`repro.tensor.ops_fused`).

Everything the FFT path does not cover runs the ``reference`` kernels
directly, so it is bit-identical to ``reference``: the training path
(``want_cols=True`` needs the im2col buffer for the weight gradient),
convolutions and deconvolutions below the tap crossover or with a
stride, and the ops in :data:`FALLBACK_OPS` — the explicit declaration
the backend lint checks, so an op can never *silently* lack a fast
path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np
import scipy.fft

from repro.backend.registry import REGISTRY, register_kernel
from repro.tensor.ops_activation import leaky_relu_forward, relu_forward
from repro.tensor.ops_conv import (
    _out_size,
    _pad_spatial,
    _tuplify,
    _unpad_spatial,
    conv_nd_forward,
    conv_nd_input_grad,
    conv_nd_weight_grad,
)
from repro.tensor.ops_norm import batchnorm_forward
from repro.tensor.ops_pool import (
    avg_pool_nd_forward,
    max_pool_nd_forward,
    upsample_bilinear_forward,
)

#: Kernel-tap count at which the FFT path overtakes reference im2col on
#: the DDnet shapes (microbenchmarked; see the crossover table in
#: docs/backends.md).  5×5 = 25 taps is exactly the paper's hot kernel.
FFT_CROSSOVER_ELEMS = 25


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth (2^a·3^b·5^c) integer ≥ ``n``.

    pocketfft's mixed-radix butterflies handle these sizes at near
    power-of-two speed; prime lengths fall off a cliff.
    """
    if n <= 6:
        return max(int(n), 1)
    best = None
    p5 = 1
    while p5 < 2 * n:
        p35 = p5
        while p35 < 2 * n:
            q = p35
            while q < n:
                q *= 2
            if best is None or q < best:
                best = q
            p35 *= 3
        p5 *= 5
    return best


def fft_eligible(kernel: Tuple[int, ...], stride: Tuple[int, ...]) -> bool:
    """Whether the FFT path handles (and should handle) this conv."""
    taps = 1
    for k in kernel:
        taps *= int(k)
    return all(s == 1 for s in stride) and taps >= FFT_CROSSOVER_ELEMS


# ---------------------------------------------------------------------------
# Filter-transform (FFT plan) cache
# ---------------------------------------------------------------------------
_FFT_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_FFT_CACHE_MAX = 64
_fft_lock = threading.Lock()


def _filter_fft(w: np.ndarray, fshape: Tuple[int, ...], flip: bool) -> np.ndarray:
    """Frequency-domain image of ``w`` (optionally spatially flipped).

    Cached per weight identity under ``no_grad`` (training mutates
    weights every step, so caching would only churn); invalidated by
    :func:`~repro.backend.registry.clear_kernel_caches`, which
    ``load_state_dict``, a dtype-changing ``to_dtype`` and every
    optimizer step call.
    """
    from repro.tensor.tensor import is_grad_enabled

    nd = len(fshape)
    axes = tuple(range(2, 2 + nd))
    key = (id(w), w.shape, w.dtype.str, fshape, flip)
    cache = not is_grad_enabled()
    if cache:
        with _fft_lock:
            hit = _FFT_CACHE.get(key)
            if hit is not None and hit[0] is w:
                _FFT_CACHE.move_to_end(key)
                return hit[1]
    wk = w[(slice(None), slice(None)) + (slice(None, None, -1),) * nd] if flip else w
    wf = scipy.fft.rfftn(wk, s=fshape, axes=axes)
    if cache:
        with _fft_lock:
            _FFT_CACHE[key] = (w, wf)
            while len(_FFT_CACHE) > _FFT_CACHE_MAX:
                _FFT_CACHE.popitem(last=False)
    return wf


def clear_fft_cache() -> None:
    with _fft_lock:
        _FFT_CACHE.clear()


def fft_cache_size() -> int:
    with _fft_lock:
        return len(_FFT_CACHE)


REGISTRY.register_cache_clearer(clear_fft_cache)


# ---------------------------------------------------------------------------
# FFT convolution / deconvolution
# ---------------------------------------------------------------------------
def _freq_contract(af: np.ndarray, bf: np.ndarray, transpose_b: bool) -> np.ndarray:
    """Per-frequency-bin channel contraction as one batched matmul.

    ``af`` is ``(N, A, *freq)``, ``bf`` is ``(A, B, *freq)`` (or
    ``(B, A, *freq)`` with ``transpose_b``); returns ``(N, B, *freq)``.
    """
    n, a = af.shape[:2]
    freq = af.shape[2:]
    bins = 1
    for s in freq:
        bins *= s
    am = af.reshape(n, a, bins).transpose(2, 0, 1)          # (L, N, A)
    if transpose_b:
        bm = bf.reshape(bf.shape[0], a, bins).transpose(2, 1, 0)  # (L, A, B)
    else:
        bm = bf.reshape(a, bf.shape[1], bins).transpose(2, 0, 1)  # (L, A, B)
    ym = np.matmul(am, bm)                                  # (L, N, B)
    return ym.transpose(1, 2, 0).reshape((n, ym.shape[2]) + freq)


def _fft_correlate(
    x: np.ndarray, w: np.ndarray, stride: Tuple[int, ...], padding: Tuple[int, ...]
) -> np.ndarray:
    """Valid cross-correlation of ``x`` with filters ``w`` via rfftn.

    The valid correlation is the ``[k-1 : k-1+out]`` slice of the full
    linear convolution with the flipped kernel; FFT lengths are padded
    to 5-smooth sizes, so the circular convolution never wraps into the
    slice we keep.
    """
    nd = w.ndim - 2
    xp = _pad_spatial(x, padding)
    sp = xp.shape[2:]
    kernel = w.shape[2:]
    out_sp = tuple(
        _out_size(x.shape[2 + i], kernel[i], stride[i], padding[i]) for i in range(nd)
    )
    fshape = tuple(next_fast_len(sp[i] + kernel[i] - 1) for i in range(nd))
    axes = tuple(range(2, 2 + nd))
    xf = scipy.fft.rfftn(xp, s=fshape, axes=axes)
    wf = _filter_fft(w, fshape, flip=True)                  # (F, C, *freq)
    yf = _freq_contract(xf, wf, transpose_b=True)           # (N, F, *freq)
    y = scipy.fft.irfftn(yf, s=fshape, axes=axes)
    slicer = (slice(None), slice(None)) + tuple(
        slice(kernel[i] - 1, kernel[i] - 1 + (out_sp[i] - 1) * stride[i] + 1, stride[i])
        for i in range(nd)
    )
    dtype = np.result_type(x.dtype, w.dtype)
    return np.ascontiguousarray(y[slicer].astype(dtype, copy=False))


def conv_nd_forward_fast(
    x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray], stride, padding,
    want_cols: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray], Tuple[int, ...]]:
    """Fast conv: FFT above the tap crossover, reference im2col below.

    ``want_cols=True`` (the training path needs the patch buffer for
    the weight gradient) also runs the reference kernel — the FFT path
    has no im2col buffer to hand back.
    """
    nd = w.ndim - 2
    stride_t = _tuplify(stride, nd)
    padding_t = _tuplify(padding, nd)
    if want_cols or not fft_eligible(w.shape[2:], stride_t):
        return conv_nd_forward(x, w, bias, stride_t, padding_t, want_cols=want_cols)
    out = _fft_correlate(x, w, stride_t, padding_t)
    if bias is not None:
        out += bias.reshape((1, -1) + (1,) * nd).astype(out.dtype, copy=False)
    return out, None, out.shape[2:]


def conv_nd_input_grad_fast(
    g: np.ndarray, w: np.ndarray, x_shape: Tuple[int, ...], stride, padding
) -> np.ndarray:
    """FFT deconvolution (stride-1 transposed conv / conv input grad).

    The padded transposed-conv output is exactly the full linear
    convolution of ``g`` with the *unflipped* kernel, contracted over
    the filter axis; strided or sub-crossover cases use the reference
    kernel (its gather or scatter form, whichever the shape selects).
    """
    nd = w.ndim - 2
    stride_t = _tuplify(stride, nd)
    padding_t = _tuplify(padding, nd)
    kernel = w.shape[2:]
    if not fft_eligible(kernel, stride_t):
        return conv_nd_input_grad(g, w, x_shape, stride_t, padding_t)
    xp_sp = tuple(x_shape[2 + i] + 2 * padding_t[i] for i in range(nd))
    fshape = tuple(next_fast_len(s) for s in xp_sp)
    axes = tuple(range(2, 2 + nd))
    gf = scipy.fft.rfftn(g, s=fshape, axes=axes)
    wf = _filter_fft(w, fshape, flip=False)                 # (F, C, *freq)
    yf = _freq_contract(gf, wf, transpose_b=False)          # (N, C, *freq)
    y = scipy.fft.irfftn(yf, s=fshape, axes=axes)
    y = y[(slice(None), slice(None)) + tuple(slice(0, s) for s in xp_sp)]
    dtype = np.result_type(g.dtype, w.dtype)
    return np.ascontiguousarray(
        _unpad_spatial(y, padding_t).astype(dtype, copy=False))


# ---------------------------------------------------------------------------
# Fused decoder pair (fast entry; the reference entry lives in
# repro.tensor.ops_fused)
# ---------------------------------------------------------------------------
def unpool_deconv_nd_forward_fast(
    x: np.ndarray, w: np.ndarray, y_shape: Tuple[int, ...], scale, stride, padding
) -> np.ndarray:
    """Fused bilinear unpool + FFT deconv (the Fig. 9 decoder pair)."""
    up = upsample_bilinear_forward(x, scale)
    return conv_nd_input_grad_fast(up, w, y_shape, stride, padding)


register_kernel("conv", "fast")(conv_nd_forward_fast)
register_kernel("deconv", "fast")(conv_nd_input_grad_fast)
register_kernel("unpool_deconv", "fast", kind="deconvolution")(
    unpool_deconv_nd_forward_fast)

#: Ops the fast backend intentionally serves with the reference
#: implementation (no algorithmic headroom over NumPy).  This is the
#: *explicit fallback declaration* the backend lint and the parity
#: tests consult: every registered op must either have a genuine fast
#: kernel above or appear here — never an accidental hole.
FALLBACK_OPS = {
    op: "reference"
    for op in ("conv_weight_grad", "maxpool", "avgpool", "unpool", "leaky_relu",
               "relu", "batchnorm")
}

register_kernel("conv_weight_grad", "fast")(conv_nd_weight_grad)
register_kernel("maxpool", "fast")(max_pool_nd_forward)
register_kernel("avgpool", "fast")(avg_pool_nd_forward)
register_kernel("unpool", "fast")(upsample_bilinear_forward)
register_kernel("leaky_relu", "fast")(leaky_relu_forward)
register_kernel("relu", "fast")(relu_forward)
register_kernel("batchnorm", "fast")(batchnorm_forward)

