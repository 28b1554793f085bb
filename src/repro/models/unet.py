"""Baseline U-Net (2D), as used by the related work in §6.2-6.3.

Li et al. use U-Net lung segmentation before ResNet classification;
Jin/Chen et al. apply U-Net-like CNNs for post-FBP image enhancement.
This implementation serves both roles in the Table 10 comparisons and
as an enhancement baseline against DDnet.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro import nn
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class _DoubleConv(nn.Module):
    """[conv → BN → LReLU] × 2, the standard U-Net stage."""

    def __init__(self, in_ch: int, out_ch: int, rng):
        super().__init__()
        self.c1 = nn.Conv2d(in_ch, out_ch, 3, padding=1, bias=False, init_std=None, rng=rng)
        self.b1 = nn.BatchNorm2d(out_ch)
        self.c2 = nn.Conv2d(out_ch, out_ch, 3, padding=1, bias=False, init_std=None, rng=rng)
        self.b2 = nn.BatchNorm2d(out_ch)

    def forward(self, x):
        h = F.leaky_relu(self.b1(self.c1(x)))
        return F.leaky_relu(self.b2(self.c2(h)))


class UNet2D(nn.Module):
    """Encoder/decoder with skip connections.

    ``out_channels=1`` plus ``residual=True`` gives the enhancement
    configuration (predict a correction image); ``residual=False`` with
    a sigmoid applied downstream gives the segmentation configuration.
    """

    def __init__(
        self,
        in_channels: int = 1,
        out_channels: int = 1,
        base: int = 8,
        depth: int = 3,
        residual: bool = False,
        rng=None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.depth = depth
        self.residual = residual
        self.enc = nn.ModuleList()
        self.pools = nn.ModuleList()
        ch = in_channels
        widths: List[int] = []
        for d in range(depth):
            w = base * (2**d)
            self.enc.append(_DoubleConv(ch, w, rng=rng))
            self.pools.append(nn.MaxPool2d(2, 2))
            widths.append(w)
            ch = w
        self.bottleneck = _DoubleConv(ch, ch * 2, rng=rng)
        ch *= 2
        self.ups = nn.ModuleList()
        self.dec = nn.ModuleList()
        for d in reversed(range(depth)):
            self.ups.append(nn.UpsampleBilinear2d(2))
            self.dec.append(_DoubleConv(ch + widths[d], widths[d], rng=rng))
            ch = widths[d]
        self.head = nn.Conv2d(ch, out_channels, 1, init_std=None, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        factor = 2**self.depth
        if x.shape[2] % factor or x.shape[3] % factor:
            raise ValueError(f"UNet2D input sides must be divisible by {factor}; got {x.shape[2:]}")
        skips: List[Tensor] = []
        h = x
        for enc, pool in zip(self.enc, self.pools):
            h = enc(h)
            skips.append(h)
            h = pool(h)
        h = self.bottleneck(h)
        for up, dec, skip in zip(self.ups, self.dec, reversed(skips)):
            h = up(h)
            h = dec(F.concat([h, skip], axis=1))
        out = self.head(h)
        if self.residual:
            out = out + x
        return out
