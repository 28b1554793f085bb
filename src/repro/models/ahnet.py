"""Segmentation AI: anisotropic hybrid network (AH-Net, §2.3.1).

AH-Net (Liu et al. 2018) transfers 2D convolutional features into 3D
volumes by using *anisotropic* kernels: in-plane k×k×1 convolutions
(which can inherit 2D pretrained weights) combined with cheap 1×1×k
through-plane convolutions.  This implementation keeps that defining
structure — anisotropic encoder, isotropic decoder with skip
connections — in an encoder/decoder for binary (lung vs. background)
voxel classification.  The anisotropic kernels are stored at their true
shapes, ``(out, in, 1, k, k)`` and ``(out, out, k, 1, 1)``, so a forward
pass multiplies no structural zeros and training cannot grow taps
outside the anisotropic support.

The paper uses NVIDIA Clara's pretrained AH-Net "as is".  No pretrained
lung AH-Net ships here: :class:`repro.pipeline.segmentation.SegmentationAI`
stands in for it with a deterministic threshold-and-morphology lung
extractor, and an :class:`AHNet3D` passed to it segments with whatever
weights it has (the unit tests train tiny instances directly).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro import nn
from repro.nn.module import Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class _AnisotropicConv(nn.Module):
    """(1, k, k) in-plane conv followed by (k, 1, 1) through-plane conv.

    Both weights are stored at their true shapes and convolved with
    per-axis padding, so the output keeps the input's spatial shape.
    """

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator, k: int = 3):
        super().__init__()
        from repro.nn import init

        w_in = init.kaiming_normal((out_ch, in_ch, k, k), rng=rng)
        self.w_inplane = Parameter(w_in.reshape(out_ch, in_ch, 1, k, k))
        w_tp = init.kaiming_normal((out_ch, out_ch, k), rng=rng)
        self.w_through = Parameter(w_tp.reshape(out_ch, out_ch, k, 1, 1))
        self.bn = nn.BatchNorm3d(out_ch)
        self.k = k

    def forward(self, x: Tensor) -> Tensor:
        p = self.k // 2
        h = F.conv3d(x, self.w_inplane, padding=(0, p, p))
        h = F.conv3d(h, self.w_through, padding=(p, 0, 0))
        return F.leaky_relu(self.bn(h))


class AHNet3D(nn.Module):
    """Anisotropic hybrid encoder/decoder for 3D lung segmentation.

    Output is a per-voxel foreground logit volume of the input shape;
    :meth:`predict_mask` thresholds the sigmoid at 0.5.
    """

    def __init__(self, in_channels: int = 1, base: int = 4, depth: int = 2, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.depth = depth
        self.enc = nn.ModuleList()
        self.pools = nn.ModuleList()
        ch = in_channels
        chans: List[int] = []
        for d in range(depth):
            out = base * (2**d)
            self.enc.append(_AnisotropicConv(ch, out, rng))
            self.pools.append(nn.MaxPool3d(2, 2))
            chans.append(out)
            ch = out
        self.bottleneck = _AnisotropicConv(ch, ch * 2, rng)
        self.ups = nn.ModuleList()
        self.dec = nn.ModuleList()
        ch = ch * 2
        for d in reversed(range(depth)):
            self.ups.append(nn.UpsampleTrilinear3d(2))
            self.dec.append(nn.Conv3d(ch + chans[d], chans[d], 3, padding=1, rng=rng))
            ch = chans[d]
        self.head = nn.Conv3d(ch, 1, 1, rng=rng)

    def _check_input(self, x: Tensor) -> None:
        factor = 2**self.depth
        if x.ndim != 5 or x.shape[1] != self.in_channels:
            raise ValueError(f"AHNet3D expects (N, {self.in_channels}, D, H, W); got {x.shape}")
        for s in x.shape[2:]:
            if s % factor:
                raise ValueError(f"volume sides must be divisible by {factor}; got {x.shape[2:]}")

    def forward(self, x: Tensor) -> Tensor:
        self._check_input(x)
        skips: List[Tensor] = []
        h = x
        for enc, pool in zip(self.enc, self.pools):
            h = enc(h)
            skips.append(h)
            h = pool(h)
        h = self.bottleneck(h)
        for up, dec, skip in zip(self.ups, self.dec, reversed(skips)):
            h = up(h)
            h = F.leaky_relu(dec(F.concat([h, skip], axis=1)))
        return self.head(h)

    def predict_mask(self, volume: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Binary foreground mask for a (D, H, W) volume."""
        from repro.tensor import no_grad

        self.eval()
        with no_grad():
            logits = self(Tensor(volume[None, None], dtype=self.dtype))
            prob = F.sigmoid(logits).data[0, 0]
        return prob >= threshold
