"""Fig. 9's two deconvolution formulations, with their operation counts.

Each kernel *really computes* the deconvolution and returns the
analytic operation counts alongside the result, mirroring the paper's
"implementing counters in each kernel" methodology (Table 6, note 2),
in any dimensionality (the paper's kernels are 2D; the 3D forms cover
the volumetric classification/segmentation stacks):

- :func:`deconv_nd_naive_kernel` — the literal scatter formulation
  (Fig. 9a): every input element multiplies the whole filter and its
  partial sums are accumulated into the output buffer.  The recurring
  read-modify-write traffic is exactly why the paper's unoptimized
  OpenCL baseline is orders of magnitude slower (Table 7).
- :func:`deconv_nd_refactored_kernel` — inverse coefficient mapping
  (Fig. 9b): each *output* element gathers the input elements that
  affect it, multiply-adds privately, and writes once.  It dispatches
  ``deconv``, whose ``reference`` kernel runs this gather at stride 1
  when the input has no more channels than the output, and the
  GEMM + col2im scatter otherwise (strided or channel-narrowing
  shapes; see :func:`repro.tensor.ops_conv.conv_nd_input_grad`), on
  the thread's backend.

Both produce the same results to rounding (tested, 2D and 3D); only
the memory traffic differs.  Every other kernel's Table 6 counts come
from its own dispatch: attach a sink with
:func:`repro.backend.registry.trace_dispatches`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.counters import OpCounts, conv_counts_nd, deconv_naive_counts_nd
from repro.backend.registry import dispatch
from repro.tensor.ops_conv import _tuplify


@dataclass
class KernelResult:
    """A kernel's output plus its measured operation counts."""

    output: np.ndarray
    counts: OpCounts
    kind: str


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


def deconv_nd_refactored_kernel(x: np.ndarray, w: np.ndarray, stride=1, padding=0) -> KernelResult:
    """Fig. 9b: gather deconvolution via inverse coefficient mapping.

    Determines, per output element, the contributing input block, and
    performs all multiply-adds before a single store.  Through the
    ``deconv`` dispatch this runs as the gather (a stride-1 conv of the
    padded input with the flipped filter) at stride 1 with
    ``C_in ≤ C_out``, and as the GEMM + col2im scatter on every other
    shape.  The counts are Table 6's conv counts either way.
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
    out = dispatch("deconv", x, w, (n, f) + out_spatial, stride_t, padding_t)
    counts = conv_counts_nd(out_spatial, f, c, kernel, batch=n)
    return KernelResult(np.ascontiguousarray(out), counts, "deconvolution")
