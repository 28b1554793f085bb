"""The ``fast`` kernel backend: each convolution on the kernel that wins for its shape.

``fast`` trades ``reference``'s exact evaluation order for an
algorithmic win and is held to the **ulp tier** instead
(:mod:`repro.backend.precision`): results must match reference within a
dtype-aware relative tolerance, which the parity property grid and
``repro bench kernels`` enforce on every run.

What it does differently: every ``conv`` and ``deconv`` call goes
through one shape rule, :func:`route`, which picks its kernel from the
taps, stride, padding and input channels:

- **pointwise GEMM** — a 1×1 (or 1×1×1) conv or deconv with stride 1,
  padding 0 and the input's spatial shape is one batched matmul on the
  channel-major layout, ``w.reshape(F, C) @ x.reshape(N, C, -1)`` (the
  transposed filter for a deconvolution), with no im2col copy.
- **FFT convolution** — stride-1 convolutions with more than one input
  channel whose kernels have at least :data:`FFT_CROSSOVER_ELEMS` taps
  (the 5×5 DDnet layers, any 3-d kernel) are executed as an
  rfftn-domain pointwise contraction: the
  padded cross-correlation is the slice ``[k-1-p, H+p)`` of the full
  linear convolution of the *unpadded* input with the spatially flipped
  kernel.  The FFTs run at the shortest length whose circular wrap
  misses that slice, ``H+p`` per axis rounded up to a 5-smooth size
  (:func:`next_fast_len`), and ``rfftn``'s ``s=`` does the zero fill,
  so no padded copy of the input is made.  The channel contraction
  runs as one complex batched matmul ``(L,N,C)@(L,C,F)`` over the ``L``
  frequency bins.
  The transforms are ``scipy.fft``'s: unlike ``np.fft``, its float32
  transforms run in single precision (complex64), 3.4–3.8× faster than
  ``np.fft``'s on the DDnet shapes (table in docs/backends.md), and it
  defaults to one worker thread.
- **bin-major filter-transform LRU cache** — the kernel's
  frequency-domain image is cached per weight array
  (identity/shape/dtype/fft-shape keyed, ``no_grad`` only) as one
  C-contiguous ``(L, A, B)`` array, ``A`` the contracted axis, so the
  contraction reads it as it is stored and repeated inference — and
  every scan of a serving batch — pays the filter FFT once.
  Invalidated through :func:`repro.backend.registry.clear_kernel_caches`
  like every other weight-derived cache.
- **FFT deconvolution** — under ``no_grad``, a stride-1 transposed
  convolution that passes the same rule is the slice ``[p, p+H)`` of
  the full linear convolution of the gradient (spatial ``G``) with the
  (unflipped) kernel, contracted over the filter axis, at the shortest
  5-smooth length ``≥ G+k-1-p``; same cache.
- **fused unpool + deconvolution** (``unpool_deconv``) — the Fig. 9
  decoder pair feeds the up-sampled map straight into the routed
  deconvolution (see :mod:`repro.tensor.ops_fused`).

Everything else runs the ``reference`` kernels directly, so it is
bit-identical to ``reference``: the training path (``want_cols=True``
needs the im2col buffer for the weight gradient, and a deconvolution
under autograd has no cached filter transform), calls with one input
channel (DDnet's and DenseNet3D's stems: nothing for the FFT to
contract over), convolutions and deconvolutions below the tap
crossover, with a stride or with a padding of ``k`` or more, and the
ops in :data:`FALLBACK_OPS` — the explicit declaration the backend lint
checks, so an op can never *silently* lack a fast path.
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
    _tuplify,
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
#: the DDnet shapes (microbenchmarked; see the routing table in
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


def route(kernel: Tuple[int, ...], stride: Tuple[int, ...], padding: Tuple[int, ...],
          channels: int, resized: bool = False, grad: bool = False) -> str:
    """The kernel that runs one ``fast`` conv or deconv, by its shape:
    ``"reference"``, ``"gemm"`` or ``"fft"``, as the module docstring
    lays out.

    ``channels`` is the axis the call contracts (``C`` for a conv, ``F``
    for a deconv); ``resized`` says the output's spatial shape differs
    from the input's (a deconvolution's output padding); ``grad`` marks
    the training path (a conv that must hand back its im2col buffer, a
    deconvolution under autograd).  A padding of ``k`` or more stays off
    the FFT: it puts the kept slice's start before the linear
    convolution's, which the shortest-length rule of
    :func:`_fft_correlate` does not cover.
    """
    if grad or channels == 1:
        return "reference"
    if all(s == 1 for s in stride):
        if not resized and all(k == 1 for k in kernel) and all(p == 0 for p in padding):
            return "gemm"
        taps = 1
        for k in kernel:
            taps *= int(k)
        if taps >= FFT_CROSSOVER_ELEMS and all(p < k for p, k in zip(padding, kernel)):
            return "fft"
    return "reference"


# ---------------------------------------------------------------------------
# Filter-transform (FFT plan) cache
# ---------------------------------------------------------------------------
_FFT_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_FFT_CACHE_MAX = 64
_fft_lock = threading.Lock()


def _filter_fft(w: np.ndarray, fshape: Tuple[int, ...], flip: bool) -> np.ndarray:
    """Bin-major frequency-domain image of ``w``: one C-contiguous
    ``(L, A, B)`` array over the ``L`` rfftn bins of ``fshape``.

    ``flip`` (correlation) spatially flips the kernel and contracts the
    input channels: ``(L, C, F)``.  Without it (deconvolution) the
    filter axis is contracted: ``(L, F, C)``.  Either way one batched
    matmul consumes it with no per-call transpose.

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
    wf = wf.reshape(w.shape[:2] + (-1,)).transpose((2, 1, 0) if flip else (2, 0, 1))
    wf = np.ascontiguousarray(wf)
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
def _fft_filter(x: np.ndarray, w: np.ndarray, fshape: Tuple[int, ...], flip: bool,
                keep: Tuple[slice, ...]) -> np.ndarray:
    """Circular convolution of ``x`` with the filters at length ``fshape``,
    contracted over ``x``'s channels, cut to the spatial slice ``keep``.

    ``rfftn``'s ``s=`` zero-fills ``x`` up to ``fshape``; the channel
    contraction is one complex batched matmul ``(L,N,A)@(L,A,B)`` over
    the frequency bins against :func:`_filter_fft`'s bin-major spectrum.
    """
    n, a = x.shape[:2]
    axes = tuple(range(2, 2 + len(fshape)))
    xf = scipy.fft.rfftn(x, s=fshape, axes=axes)
    freq = xf.shape[2:]
    ym = np.matmul(xf.reshape(n, a, -1).transpose(2, 0, 1),
                   _filter_fft(w, fshape, flip))            # (L, N, B)
    yf = ym.transpose(1, 2, 0).reshape((n, ym.shape[2]) + freq)
    y = scipy.fft.irfftn(yf, s=fshape, axes=axes)[(slice(None), slice(None)) + keep]
    return np.ascontiguousarray(y.astype(np.result_type(x.dtype, w.dtype), copy=False))


def _fft_correlate(x: np.ndarray, w: np.ndarray, padding: Tuple[int, ...]) -> np.ndarray:
    """Stride-1 cross-correlation of ``x`` (padded by ``p``) with ``w``.

    It is the slice ``[k-1-p, H+p)`` of the full linear convolution of
    the unpadded ``x`` with the flipped kernel (support ``[0, H+k-1)``).
    At length ``L ≥ H+p`` the circular wrap adds only indices below
    ``k-1-p`` to the kept slice's, so ``L`` is the shortest 5-smooth
    length ``≥ H+p``.  A kernel longer than ``L`` is cut by ``rfftn``,
    but its taps past ``L`` meet only zeros for every kept index.
    """
    kernel, sp = w.shape[2:], x.shape[2:]
    fshape = tuple(next_fast_len(h + p) for h, p in zip(sp, padding))
    keep = tuple(slice(k - 1 - p, h + p) for h, p, k in zip(sp, padding, kernel))
    return _fft_filter(x, w, fshape, True, keep)


def _pointwise(x: np.ndarray, w2: np.ndarray, out_shape: Tuple[int, ...]) -> np.ndarray:
    """``w2 @ x`` over the channel axis of an ``(N, A, *spatial)`` array:
    one batched GEMM ``(B, A) @ (N, A, S)`` on the channel-major layout."""
    return np.matmul(w2, x.reshape(x.shape[:2] + (-1,))).reshape(out_shape)


def conv_nd_forward_fast(
    x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray], stride, padding,
    want_cols: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray], Tuple[int, ...]]:
    """Fast conv on the kernel :func:`route` picks for its shape.

    ``want_cols=True`` (the training path needs the patch buffer for
    the weight gradient) runs the reference kernel — neither the FFT
    nor the pointwise GEMM has an im2col buffer to hand back.
    """
    nd = w.ndim - 2
    stride_t = _tuplify(stride, nd)
    padding_t = _tuplify(padding, nd)
    path = route(w.shape[2:], stride_t, padding_t, w.shape[1], grad=want_cols)
    if path == "reference":
        return conv_nd_forward(x, w, bias, stride_t, padding_t, want_cols=want_cols)
    if path == "gemm":
        out = _pointwise(x, w.reshape(w.shape[:2]), (x.shape[0], w.shape[0]) + x.shape[2:])
    else:
        out = _fft_correlate(x, w, padding_t)
    if bias is not None:
        out += bias.reshape((1, -1) + (1,) * nd).astype(out.dtype, copy=False)
    return out, None, out.shape[2:]


def conv_nd_input_grad_fast(
    g: np.ndarray, w: np.ndarray, x_shape: Tuple[int, ...], stride, padding
) -> np.ndarray:
    """Fast deconvolution (transposed conv / conv input grad) on the
    kernel :func:`route` picks for its shape.

    Under autograd it runs ``reference``'s gather or scatter form: with
    no cached filter transform (training changes the weights every
    step) the FFT loses there (docs/backends.md).  A pointwise
    deconvolution is one GEMM with the transposed ``(F, C)`` filter.

    The FFT transposed conv of ``g`` (spatial ``G``) is the slice
    ``[p, p+H)`` of the full linear convolution of ``g`` with the
    *unflipped* kernel (support ``[0, G+k-1)``), contracted over the
    filter axis.  At length ``L ≥ G+k-1-p`` the wrap lands only below
    ``p``, so ``L`` is the shortest 5-smooth length ``≥ G+k-1-p`` (or
    ``≥ H+p``, if an output padding makes ``H`` longer than ``G+k-1-2p``).
    """
    from repro.tensor.tensor import is_grad_enabled

    nd = w.ndim - 2
    stride_t = _tuplify(stride, nd)
    padding_t = _tuplify(padding, nd)
    kernel = w.shape[2:]
    sp = tuple(x_shape[2:])
    path = route(kernel, stride_t, padding_t, w.shape[0],
                 resized=sp != g.shape[2:], grad=is_grad_enabled())
    if path == "reference":
        return conv_nd_input_grad(g, w, x_shape, stride_t, padding_t)
    if path == "gemm":
        return _pointwise(g, w.reshape(w.shape[:2]).T, tuple(x_shape))
    fshape = tuple(next_fast_len(max(n + k - 1 - p, h + p))
                   for n, h, p, k in zip(g.shape[2:], sp, padding_t, kernel))
    keep = tuple(slice(p, p + h) for h, p in zip(sp, padding_t))
    return _fft_filter(g, w, fshape, False, keep)


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

