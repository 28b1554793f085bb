"""Densely connected blocks (paper Fig. 7).

Each block holds four densely connected layers: the input to every
layer is the concatenation of the block input and all previous layer
outputs (the "local shortcut connections" of §2.2.1).  A layer is the
[1×1 bottleneck → 5×5] pair listed in Table 2, each convolution
preceded by batch-norm + Leaky-ReLU (pre-activation ordering, as in
DenseNet).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class _DenseLayer(nn.Module):
    """BN → LReLU → 1×1 conv → BN → LReLU → k×k conv producing ``growth`` maps."""

    def __init__(
        self,
        in_channels: int,
        growth: int,
        kernel_size: int,
        bottleneck_factor: int,
        init_std: Optional[float],
        rng,
        conv_cls=nn.Conv2d,
        bn_cls=nn.BatchNorm2d,
    ):
        super().__init__()
        mid = bottleneck_factor * growth
        self.bn1 = bn_cls(in_channels)
        self.conv1 = conv_cls(in_channels, mid, 1, bias=False, init_std=init_std, rng=rng)
        self.bn2 = bn_cls(mid)
        self.conv2 = conv_cls(
            mid, growth, kernel_size, padding=kernel_size // 2, bias=False,
            init_std=init_std, rng=rng,
        )

    def forward(self, x: Tensor) -> Tensor:
        h = self.conv1(F.leaky_relu(self.bn1(x)))
        return self.conv2(F.leaky_relu(self.bn2(h)))


class DenseBlock(nn.Module):
    """2D dense block: ``num_layers`` densely connected [1×1, k×k] pairs.

    Output channels = ``in_channels + num_layers * growth`` (Table 2:
    16 + 4·16 = 80).
    """

    conv_cls = nn.Conv2d
    bn_cls = nn.BatchNorm2d

    def __init__(
        self,
        in_channels: int,
        growth: int = 16,
        num_layers: int = 4,
        kernel_size: int = 5,
        bottleneck_factor: int = 4,
        init_std: Optional[float] = 0.01,
        rng=None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.growth = growth
        self.num_layers = num_layers
        self.out_channels = in_channels + num_layers * growth
        self.layers = nn.ModuleList()
        ch = in_channels
        for _ in range(num_layers):
            self.layers.append(
                _DenseLayer(
                    ch, growth, kernel_size, bottleneck_factor, init_std, rng,
                    conv_cls=self.conv_cls, bn_cls=self.bn_cls,
                )
            )
            ch += growth

    def forward(self, x: Tensor) -> Tensor:
        features = x
        for layer in self.layers:
            new = layer(features)
            features = F.concat([features, new], axis=1)
        return features


class DenseBlock3D(DenseBlock):
    """3D dense block (used by the Classification AI DenseNet)."""

    conv_cls = nn.Conv3d
    bn_cls = nn.BatchNorm3d

    def __init__(
        self,
        in_channels: int,
        growth: int = 16,
        num_layers: int = 4,
        kernel_size: int = 3,
        bottleneck_factor: int = 4,
        rng=None,
    ):
        super().__init__(
            in_channels, growth=growth, num_layers=num_layers,
            kernel_size=kernel_size, bottleneck_factor=bottleneck_factor,
            init_std=None, rng=rng,
        )
