"""Int8 weight-quantization kernels (the registry's raw compute layer).

The reduced-precision inference path quantizes per-layer weights to
symmetric int8 with a per-output-channel float32 scale — the standard
post-training weight-only scheme the CoRSAI / Goel et al. follow-ups
evaluate for CT enhancement throughput.  The *helpers* that apply it to
modules and checkpoints live in :mod:`repro.nn.quantize` and contain no
NumPy compute at all (the backend lint enforces that): every quantize /
dequantize runs through :func:`repro.backend.registry.dispatch` against
the kernels below, so the work shows up in kernel telemetry and can be
re-implemented per backend like any other op.

Scheme (per array ``x`` with channel axis ``axis``):

- ``scale[c] = max(|x[c]|) / 127`` (float32; zero rows get scale 1 so
  the quantized value is exactly 0),
- ``q = clip(round(x / scale), -127, 127)`` as int8 (symmetric: -128 is
  never produced, so negation stays exact),
- ``dequantize(q, scale) = q · scale`` cast to the recorded float dtype
  — float16/float32 checkpoints come back at their own width, never
  silently promoted to float64.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend.counters import OpCounts
from repro.backend.registry import register_kernel

#: Symmetric int8 range: ±127 (−128 unused so ``-q`` is always valid).
QMAX = 127


def quantize_linear_kernel(
    x: np.ndarray, axis: Optional[int] = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric int8 quantization; returns ``(q, scale)``.

    ``axis`` selects the per-channel axis (``None`` = one per-tensor
    scale).  ``scale`` is float32 with ``keepdims`` shape, so
    ``q * scale`` broadcasts directly back to ``x.shape``.
    """
    x = np.asarray(x)
    if axis is None:
        reduce_axes = tuple(range(x.ndim))
    else:
        reduce_axes = tuple(i for i in range(x.ndim) if i != axis % max(x.ndim, 1))
    amax = np.max(np.abs(x), axis=reduce_axes, keepdims=True)
    scale = np.where(amax > 0, amax / QMAX, 1.0).astype(np.float32)
    q = np.clip(np.round(x / scale), -QMAX, QMAX).astype(np.int8)
    return q, scale


def dequantize_linear_kernel(
    q: np.ndarray, scale: np.ndarray, dtype=np.float32
) -> np.ndarray:
    """Reconstruct the float array: ``q · scale`` at the *target* dtype.

    The product is formed in float32 (the scale's width) and cast to
    ``dtype`` — reconstruction never widens beyond what the caller
    recorded, so an int8 checkpoint can round-trip as float16/float32
    without touching float64.
    """
    dtype = np.dtype(dtype)
    out = q.astype(np.float32) * np.asarray(scale, dtype=np.float32)
    return np.ascontiguousarray(out.astype(dtype, copy=False))


def _quantize_dispatch_counts(result, x, *args, **kwargs) -> OpCounts:
    n = int(np.asarray(x).size)
    return OpCounts(loads=2 * n, stores=n, flops=3 * n)


def _dequantize_dispatch_counts(result, q, scale, *args, **kwargs) -> OpCounts:
    n = int(result.size)
    return OpCounts(loads=n, stores=n, flops=n)


register_kernel("quantize_linear", "reference", kind="quantize",
                counts=_quantize_dispatch_counts)(quantize_linear_kernel)
register_kernel("dequantize_linear", "reference", kind="dequantize",
                counts=_dequantize_dispatch_counts)(dequantize_linear_kernel)

# Quantization is a one-shot transform, not a serving hot path: the
# fast aliases of these kernels are declared in
# repro.backend.fast.FALLBACK_OPS.
