"""Instrumented functional kernels for the six inference operations.

Each kernel *really computes* its operation and returns the analytic
operation counts alongside the result, mirroring the paper's
"implementing counters in each kernel" methodology (Table 6, note 2).
Execution is routed through the :mod:`repro.backend` kernel registry,
so these instrumented wrappers run on any registered backend
(``backend="fast"`` selects the FFT kernels) and participate in dispatch-level telemetry like every other call site.

Two deconvolution formulations exist, reproducing Fig. 9 — now in any
dimensionality (the paper's kernels are 2D; the 3D forms cover the
volumetric classification/segmentation stacks):

- :func:`deconv_nd_naive_kernel` — the literal scatter formulation
  (Fig. 9a): every input element multiplies the whole filter and its
  partial sums are accumulated into the output buffer.  The recurring
  read-modify-write traffic is exactly why the paper's unoptimized
  OpenCL baseline is orders of magnitude slower (Table 7).
- :func:`deconv_nd_refactored_kernel` — inverse coefficient mapping
  (Fig. 9b): each *output* element gathers the input elements that
  affect it, multiply-adds privately, and writes once.

Both produce identical results (tested, 2D and 3D); only the memory
traffic differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.backend.counters import (
    OpCounts,
    batchnorm_counts,
    conv_counts_nd,
    deconv_naive_counts_nd,
    leaky_relu_counts,
    pool_counts_nd,
    unpool_counts_nd,
)
from repro.backend.registry import dispatch
from repro.tensor.ops_conv import _tuplify


@dataclass
class KernelResult:
    """A kernel's output plus its measured operation counts."""

    output: np.ndarray
    counts: OpCounts
    kind: str


# ---------------------------------------------------------------------------
# N-dimensional kernels
# ---------------------------------------------------------------------------
def conv_nd_kernel(x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray] = None,
                   stride=1, padding=0, backend: Optional[str] = None) -> KernelResult:
    """Convolution via im2col + GEMM (the optimized formulation)."""
    out, _, _ = dispatch("conv", x, w, bias, stride, padding,
                         want_cols=False, backend=backend)
    counts = conv_counts_nd(out.shape[2:], out.shape[1], w.shape[1], w.shape[2:],
                            batch=out.shape[0])
    return KernelResult(out, counts, "convolution")


def deconv_nd_naive_kernel(x: np.ndarray, w: np.ndarray,
                           stride=1, padding=0) -> KernelResult:
    """Fig. 9a: scatter deconvolution with per-partial-sum accumulation.

    The loop nest runs over input sites (vectorized over batch and
    channels); each iteration performs a read-modify-write on an output
    window — the access pattern the refactoring eliminates.  This is
    the simulation's naive *baseline* and intentionally bypasses the
    registry: it exists to be compared against, not dispatched to.
    """
    nd = w.ndim - 2
    spatial = x.shape[2:]
    n, c = x.shape[:2]
    c_in, f = w.shape[:2]
    kernel = w.shape[2:]
    if c != c_in:
        raise ValueError(f"input channels {c} != weight in-channels {c_in}")
    stride_t = _tuplify(stride, nd)
    padding_t = _tuplify(padding, nd)
    out_spatial = tuple(
        (spatial[i] - 1) * stride_t[i] + kernel[i] for i in range(nd)
    )
    out = np.zeros((n, f) + out_spatial)
    wf = w.reshape(c_in, -1)
    for site in np.ndindex(*spatial):
        # partial sums for this input site: (N, F, *kernel)
        contrib = (x[(slice(None), slice(None)) + site] @ wf).reshape((n, f) + kernel)
        window = (slice(None), slice(None)) + tuple(
            slice(site[i] * stride_t[i], site[i] * stride_t[i] + kernel[i])
            for i in range(nd)
        )
        out[window] += contrib
    if any(padding_t):
        out = out[(slice(None), slice(None)) + tuple(
            slice(p, out.shape[2 + i] - p) for i, p in enumerate(padding_t)
        )]
    counts = deconv_naive_counts_nd(spatial, c, f, kernel, batch=n)
    return KernelResult(np.ascontiguousarray(out), counts, "deconvolution_naive")


def deconv_nd_refactored_kernel(x: np.ndarray, w: np.ndarray, stride=1, padding=0,
                                backend: Optional[str] = None) -> KernelResult:
    """Fig. 9b: gather deconvolution via inverse coefficient mapping.

    Determines, per output element, the contributing input block, and
    performs all multiply-adds before a single store — implemented as
    the adjoint-convolution gather (col2im), which is the same
    refactoring expressed with matrices.
    """
    nd = w.ndim - 2
    n, c = x.shape[:2]
    c_in, f = w.shape[:2]
    if c != c_in:
        raise ValueError(f"input channels {c} != weight in-channels {c_in}")
    stride_t = _tuplify(stride, nd)
    padding_t = _tuplify(padding, nd)
    kernel = w.shape[2:]
    out_spatial = tuple(
        (x.shape[2 + i] - 1) * stride_t[i] + kernel[i] - 2 * padding_t[i]
        for i in range(nd)
    )
    out = dispatch("deconv", x, w, (n, f) + out_spatial, stride_t, padding_t,
                   backend=backend)
    counts = conv_counts_nd(out_spatial, f, c, kernel, batch=n)
    return KernelResult(np.ascontiguousarray(out), counts, "deconvolution")


def maxpool_nd_kernel(x: np.ndarray, k=3, stride=2, padding=1,
                      backend: Optional[str] = None) -> KernelResult:
    """Max pooling (3×3/stride-2 in DDnet)."""
    out, _, _ = dispatch("maxpool", x, k, stride, padding,
                         want_indices=False, backend=backend)
    counts = pool_counts_nd(out.shape[2:], out.shape[1], k, batch=out.shape[0])
    return KernelResult(out, counts, "pooling")


def unpool_nd_kernel(x: np.ndarray, scale: int = 2,
                     backend: Optional[str] = None) -> KernelResult:
    """Separable-linear un-pooling (bilinear in 2D, trilinear in 3D)."""
    out = dispatch("unpool", x, scale, backend=backend)
    counts = unpool_counts_nd(out.shape[2:], out.shape[1], batch=out.shape[0])
    return KernelResult(out, counts, "unpooling")


def leaky_relu_kernel(x: np.ndarray, negative_slope: float = 0.01,
                      backend: Optional[str] = None) -> KernelResult:
    out = dispatch("leaky_relu", x, negative_slope, backend=backend)
    return KernelResult(out, leaky_relu_counts(x.size), "leaky_relu")


def batchnorm_kernel(x: np.ndarray, mean: np.ndarray, var: np.ndarray,
                     gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5,
                     backend: Optional[str] = None) -> KernelResult:
    """Inference-mode batch normalization with running statistics."""
    out, _, _ = dispatch("batchnorm", x, mean, var, gamma, beta, eps,
                         backend=backend)
    return KernelResult(out, batchnorm_counts(x.size), "batchnorm")


# ---------------------------------------------------------------------------
# 2D wrappers (the original Fig. 9 / Table 6 surface)
# ---------------------------------------------------------------------------
def conv2d_kernel(x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray] = None,
                  stride: int = 1, padding: int = 0,
                  backend: Optional[str] = None) -> KernelResult:
    return conv_nd_kernel(x, w, bias, stride, padding, backend=backend)


def deconv2d_naive_kernel(x: np.ndarray, w: np.ndarray,
                          stride: int = 1, padding: int = 0) -> KernelResult:
    return deconv_nd_naive_kernel(x, w, stride, padding)


def deconv2d_refactored_kernel(x: np.ndarray, w: np.ndarray,
                               stride: int = 1, padding: int = 0,
                               backend: Optional[str] = None) -> KernelResult:
    return deconv_nd_refactored_kernel(x, w, stride, padding, backend=backend)


def maxpool_kernel(x: np.ndarray, k: int = 3, stride: int = 2, padding: int = 1,
                   backend: Optional[str] = None) -> KernelResult:
    return maxpool_nd_kernel(x, k, stride, padding, backend=backend)


def unpool_bilinear_kernel(x: np.ndarray, scale: int = 2,
                           backend: Optional[str] = None) -> KernelResult:
    return unpool_nd_kernel(x, scale, backend=backend)


# ---------------------------------------------------------------------------
# 3D wrappers (the volumetric Fig. 9 extension)
# ---------------------------------------------------------------------------
def _require_volume(x: np.ndarray, w: np.ndarray) -> None:
    if x.ndim != 5 or w.ndim != 5:
        raise ValueError(
            f"3D kernels expect (N, C, D, H, W) input and 5-d weights; "
            f"got {x.shape} and {w.shape}")


def conv3d_kernel(x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray] = None,
                  stride: int = 1, padding: int = 0,
                  backend: Optional[str] = None) -> KernelResult:
    _require_volume(x, w)
    return conv_nd_kernel(x, w, bias, stride, padding, backend=backend)


def deconv3d_naive_kernel(x: np.ndarray, w: np.ndarray,
                          stride: int = 1, padding: int = 0) -> KernelResult:
    _require_volume(x, w)
    return deconv_nd_naive_kernel(x, w, stride, padding)


def deconv3d_refactored_kernel(x: np.ndarray, w: np.ndarray,
                               stride: int = 1, padding: int = 0,
                               backend: Optional[str] = None) -> KernelResult:
    _require_volume(x, w)
    return deconv_nd_refactored_kernel(x, w, stride, padding, backend=backend)
