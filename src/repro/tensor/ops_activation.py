"""Nonlinear activation ops.

DDnet uses Leaky-ReLU throughout (Table 6 counts a Leaky-ReLU kernel);
the 3D classifier head uses sigmoid for its binary output and ReLU
internally.  All are implemented as fused forward/backward pairs rather
than compositions, so each costs one pass over memory — the same
"memory-bound, minimize traffic" concern §5.1.3 of the paper raises.

The elementwise ReLU family dispatches through the
:mod:`repro.backend` registry (ops ``relu`` / ``leaky_relu``); the
backward pass recomputes its sign mask from the saved input so the
kernels stay single-output.
"""

from __future__ import annotations

import numpy as np

from repro.backend.counters import OpCounts, leaky_relu_counts
from repro.backend.registry import dispatch, register_kernel
from repro.tensor.tensor import Tensor, as_tensor


# ---------------------------------------------------------------------------
# Raw kernels (the registry's ``reference`` backend)
# ---------------------------------------------------------------------------
def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, 0.0)


def check_negative_slope(negative_slope: float) -> None:
    """A Leaky-ReLU slope must lie in (0, 1].

    Only there is ``x if x > 0 else slope·x`` the same as
    ``max(x, slope·x)``: a zero slope would turn +inf into
    ``max(inf, 0·inf)`` = NaN (use ReLU), and a slope above one or below
    zero flips which side the maximum picks.
    """
    if not 0.0 < negative_slope <= 1.0:
        raise ValueError(f"negative_slope must be in (0, 1], got {negative_slope!r}")


def leaky_relu_forward(x: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
    """``x`` where positive, else ``negative_slope * x``.

    Computed as ``max(x, slope·x)`` into the one output buffer, which is
    exact (±0.0, ±inf and NaN included) for the slopes
    :func:`check_negative_slope` allows.
    """
    check_negative_slope(negative_slope)
    out = np.asarray(negative_slope * x)  # a 0-d input gives a scalar
    return np.maximum(x, out, out=out)


def _elementwise_dispatch_counts(result, x, *args, **kwargs) -> OpCounts:
    return leaky_relu_counts(result.size)


register_kernel("relu", "reference", kind="relu",
                counts=_elementwise_dispatch_counts)(relu_forward)
register_kernel("leaky_relu", "reference", kind="leaky_relu",
                counts=_elementwise_dispatch_counts)(leaky_relu_forward)


# ---------------------------------------------------------------------------
# Autograd ops
# ---------------------------------------------------------------------------
def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = dispatch("relu", a.data)

    def backward(g):
        a._accumulate(g * (a.data > 0))

    return Tensor._make(out_data, (a,), backward)


def leaky_relu(a, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU: ``x`` if positive else ``negative_slope * x``."""
    a = as_tensor(a)
    out_data = dispatch("leaky_relu", a.data, negative_slope)

    def backward(g):
        a._accumulate(np.where(a.data > 0, g, negative_slope * g))

    return Tensor._make(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # Numerically stable two-sided formulation.
    x = a.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                        np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))))

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - out_data * out_data))

    return Tensor._make(out_data, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        a._accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def backward(g):
        a._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (a,), backward)
