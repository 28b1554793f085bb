"""Weight initialization schemes.

The paper initializes all DDnet filters from a zero-mean Gaussian with
standard deviation 0.01 (§3.1.1); Kaiming/Xavier variants are provided
for the 3D networks where a pure 0.01 Gaussian would under-scale deep
feature magnitudes.

Every draw takes its generator from the caller; there is no module
state, so a model's weights depend only on its constructor's arguments.
A layer's or model's ``rng=None`` means ``np.random.default_rng(0)``,
resolved once at the top of the public constructor and handed down to
every child, which draw from it in turn.
"""

from __future__ import annotations

import math

import numpy as np


def gaussian(shape, std: float = 0.01, mean: float = 0.0, *, rng) -> np.ndarray:
    """Paper §3.1.1: random Gaussian, mean 0, std 0.01."""
    return rng.normal(mean, std, size=shape)


def _fan_in_out(shape) -> tuple[int, int]:
    if len(shape) == 2:  # Linear: (out, in)
        return shape[1], shape[0]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive


def kaiming_normal(shape, a: float = 0.0, *, rng) -> np.ndarray:
    """He initialization for (leaky-)ReLU nonlinearities."""
    fan_in, _ = _fan_in_out(shape)
    gain = math.sqrt(2.0 / (1.0 + a * a))
    std = gain / math.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape)


def xavier_uniform(shape, *, rng) -> np.ndarray:
    """Glorot uniform initialization."""
    fan_in, fan_out = _fan_in_out(shape)
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)
