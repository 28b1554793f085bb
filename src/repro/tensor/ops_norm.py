"""Batch-normalization autograd op (shared by 2D and 3D layers).

Normalizes over all axes except the channel axis (axis 1), matching
``torch.nn.BatchNorm2d/3d`` semantics.  The backward pass uses the
standard fused expression so only two extra reductions are needed.

The normalization arithmetic itself lives in a registered kernel
(op ``batchnorm``) so both training and inference dispatch through the
:mod:`repro.backend` registry; the statistics (batch vs. running) are
resolved here, outside the kernel.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend.counters import OpCounts, batchnorm_counts
from repro.backend.registry import dispatch, register_kernel
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled


# ---------------------------------------------------------------------------
# Raw kernel (the registry's ``reference`` backend)
# ---------------------------------------------------------------------------
def batchnorm_forward(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize ``x`` with the given per-channel statistics.

    Returns ``(out, x_hat, inv_std)``; the latter two feed the backward
    pass without recomputation.  ``(x - mean)·inv_std`` and
    ``gamma·x_hat + beta`` each write their second operation into the
    first one's buffer when its result has that buffer's dtype.  When no
    gradient is recorded nothing reads ``x_hat``, so ``gamma·x_hat``
    is written into ``x_hat``'s own buffer too (where dtypes allow) and
    ``x_hat`` is returned as ``None``.
    """
    shape = (1, -1) + (1,) * (x.ndim - 2)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = _into(np.multiply, x - mean.reshape(shape), inv_std.reshape(shape))
    gamma = gamma.reshape(shape)
    if is_grad_enabled():
        scaled = gamma * x_hat
    else:
        scaled = np.multiply(gamma, x_hat, out=x_hat if _fits(x_hat, gamma) else None)
        x_hat = None
    return _into(np.add, scaled, beta.reshape(shape)), x_hat, inv_std


def _fits(buf: np.ndarray, operand: np.ndarray) -> bool:
    """Whether an op of ``buf`` and ``operand`` has ``buf``'s dtype."""
    return np.result_type(buf, operand) == buf.dtype


def _into(ufunc, buf: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """``ufunc(buf, operand)``, written into ``buf`` when dtypes allow."""
    return ufunc(buf, operand, out=buf if _fits(buf, operand) else None)


def _batchnorm_dispatch_counts(result, x, *args, **kwargs) -> OpCounts:
    return batchnorm_counts(result[0].size)


register_kernel("batchnorm", "reference", kind="batchnorm",
                counts=_batchnorm_dispatch_counts)(batchnorm_forward)


# ---------------------------------------------------------------------------
# Autograd op
# ---------------------------------------------------------------------------
def batch_norm(
    x,
    gamma,
    beta,
    running_mean: Optional[np.ndarray] = None,
    running_var: Optional[np.ndarray] = None,
    training: bool = True,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over an ``(N, C, *spatial)`` tensor.

    When ``training`` is true the batch statistics are used and the
    running buffers (plain NumPy arrays owned by the layer) are updated
    in place; otherwise the running statistics are used.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    axes = (0,) + tuple(range(2, x.data.ndim))
    shape = (1, -1) + (1,) * (x.data.ndim - 2)
    m = float(np.prod([x.data.shape[a] for a in axes]))

    if training or running_mean is None:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        if running_mean is not None:
            # In-place update so the layer's buffers see the new values.
            running_mean *= 1.0 - momentum
            running_mean += momentum * mean
            unbiased = var * (m / max(m - 1.0, 1.0))
            running_var *= 1.0 - momentum
            running_var += momentum * unbiased
    else:
        mean = running_mean
        var = running_var

    out_data, x_hat, inv_std = dispatch(
        "batchnorm", x.data, mean, var, gamma.data, beta.data, eps)

    def backward(g):
        gr = gamma.data.reshape(shape)
        if gamma.requires_grad:
            gamma._accumulate((g * x_hat).sum(axis=axes))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=axes))
        if x.requires_grad:
            if training or running_mean is None:
                # Full derivative through the batch statistics.
                g_hat = g * gr
                sum_g = g_hat.sum(axis=axes, keepdims=True)
                sum_gx = (g_hat * x_hat).sum(axis=axes, keepdims=True)
                gx = (inv_std.reshape(shape) / m) * (m * g_hat - sum_g - x_hat * sum_gx)
            else:
                gx = g * gr * inv_std.reshape(shape)
            x._accumulate(gx)

    return Tensor._make(out_data, (x, gamma, beta), backward)
