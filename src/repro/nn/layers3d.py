"""3D layers for the volumetric Segmentation/Classification networks.

The paper's Classification AI ingests full ``512×512×n`` volumes
(§3.3.1); these layers are size-parametric so the identical
architectures run at reduced scale on CPU.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.layers import _BatchNormNd
from repro.nn.module import Module, Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class Conv3d(Module):
    """3D convolution, weights ``(out, in, k, k, k)`` (cubic kernels)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        init_std: Optional[float] = None,
        rng=None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels) + (kernel_size,) * 3
        w = init.gaussian(shape, std=init_std, rng=rng) if init_std else init.kaiming_normal(shape, rng=rng)
        self.weight = Parameter(w, name="weight")
        self.bias = Parameter(np.zeros(out_channels), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv3d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding)

    def __repr__(self):
        return (
            f"Conv3d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class BatchNorm3d(_BatchNormNd):
    """Batch norm over (N, C, D, H, W)."""


class MaxPool3d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool_nd(x, self.kernel_size, self.stride, self.padding)


class GlobalAvgPool(Module):
    """Average over all spatial axes — the classifier-head reducer."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool(x)


class UpsampleTrilinear3d(Module):
    def __init__(self, scale: int = 2):
        super().__init__()
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample_bilinear(x, self.scale)
