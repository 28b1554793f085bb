"""Classification AI: 3D DenseNet binary classifier (§2.3.2).

A DenseNet-121-style network adapted for 3D volumes, exactly as the
paper describes: "four densely connected blocks for feature extraction.
Each dense block is followed by maximum pooling and a transition
convolution layer.  Finally, fully connected layers classify the CT
scan."  The head ends in a sigmoid so the output is the probability of
the scan being COVID-19 positive (Eq. 2 trains it with BCE).

DenseNet-121 proper uses block sizes (6, 12, 24, 16); that depth is far
beyond a single-CPU reproduction budget, so ``block_layers`` is
parametric with the 121 configuration available via
:func:`DenseNet3D.densenet121`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import nn
from repro.models.dense_block import DenseBlock3D
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class DenseNet3D(nn.Module):
    """3D densely connected classifier.

    Parameters
    ----------
    block_layers:
        Dense layers in each of the four blocks.
    growth:
        Channels added per dense layer.
    init_features:
        Stem output channels.
    compression:
        Transition-layer channel compression (DenseNet uses 0.5).
    """

    def __init__(
        self,
        in_channels: int = 1,
        block_layers: Sequence[int] = (2, 2, 2, 2),
        growth: int = 8,
        init_features: int = 8,
        compression: float = 0.5,
        num_outputs: int = 1,
        rng=None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.block_layers = tuple(block_layers)
        self.stem = nn.Conv3d(in_channels, init_features, 3, stride=1, padding=1,
                              bias=False, rng=rng)
        self.stem_bn = nn.BatchNorm3d(init_features)
        self.stem_pool = nn.MaxPool3d(2, 2)

        self.blocks = nn.ModuleList()
        self.transitions = nn.ModuleList()
        self.pools = nn.ModuleList()
        ch = init_features
        for i, n_layers in enumerate(block_layers):
            block = DenseBlock3D(ch, growth=growth, num_layers=n_layers,
                                 kernel_size=3, bottleneck_factor=4, rng=rng)
            self.blocks.append(block)
            ch = block.out_channels
            if i < len(block_layers) - 1:
                out_ch = max(1, int(ch * compression))
                self.transitions.append(
                    nn.Conv3d(ch, out_ch, 1, bias=False, rng=rng)
                )
                self.pools.append(nn.MaxPool3d(2, 2))
                ch = out_ch
        self.final_bn = nn.BatchNorm3d(ch)
        self.gap = nn.GlobalAvgPool()
        self.fc = nn.Linear(ch, num_outputs, rng=rng)
        self.feature_channels = ch

    @classmethod
    def densenet121(cls, in_channels: int = 1, rng=None) -> "DenseNet3D":
        """The full DenseNet-121 configuration (paper scale)."""
        return cls(in_channels=in_channels, block_layers=(6, 12, 24, 16),
                   growth=32, init_features=64, rng=rng)

    def _check_input(self, x: Tensor) -> None:
        factor = 2 ** len(self.block_layers)  # stem pool + per-block pools
        if x.ndim != 5 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"DenseNet3D expects (N, {self.in_channels}, D, H, W); got {x.shape}"
            )
        for s in x.shape[2:]:
            if s % factor:
                raise ValueError(
                    f"volume sides must be divisible by {factor}; got {x.shape[2:]}"
                )

    def features(self, x: Tensor) -> Tensor:
        """Feature extractor up to (N, C) pooled descriptors."""
        self._check_input(x)
        h = self.stem_pool(F.leaky_relu(self.stem_bn(self.stem(x))))
        for i, block in enumerate(self.blocks):
            h = block(h)
            if i < len(self.blocks) - 1:
                h = self.transitions[i](h)
                h = self.pools[i](h)
        h = F.leaky_relu(self.final_bn(h))
        return self.gap(h)

    def forward(self, x: Tensor) -> Tensor:
        """Return logits of shape (N, num_outputs)."""
        return self.fc(self.features(x))

    def predict_proba(self, x: Tensor) -> Tensor:
        """Probability of the positive class, shape (N,)."""
        logits = self(x)
        return F.sigmoid(logits.reshape(logits.shape[0]))
