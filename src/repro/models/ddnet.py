"""DDnet — the DenseNet & Deconvolution enhancement network (Table 2).

Architecture (paper §2.2, Figs. 6-7, Table 2), parametric in width and
input size:

- **Convolution network** (37 convolutions at paper scale): a 7×7 stem,
  then four [dense block → 1×1 transition conv → 3×3/stride-2 max pool]
  stages.  1 + 4·(4·2) + 4 = 37.
- **Deconvolution network** (8 deconvolutions): four stages of
  [bilinear ×2 un-pooling → concat global shortcut → 5×5 deconv → 1×1
  deconv].
- **Shortcut connections**: local (dense concatenation inside blocks)
  and global (encoder feature maps concatenated after each un-pool).

Every convolution/deconvolution except the output layer is followed by
batch-norm and Leaky-ReLU, matching the kernel inventory of Table 6
(convolution, deconvolution, pooling, un-pooling, Leaky-ReLU, batch
normalization).

The network is fully convolutional: any input whose sides are divisible
by ``2**num_blocks`` works, which lets the test suite train the exact
architecture at 32-64 px while the benchmarks reason about the paper's
512×512 scale.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro import nn
from repro.models.dense_block import DenseBlock
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class _ConvBNAct(nn.Module):
    """conv → BN → LeakyReLU."""

    def __init__(self, in_ch, out_ch, k, init_std, rng, stride=1):
        super().__init__()
        self.conv = nn.Conv2d(in_ch, out_ch, k, stride=stride, padding=k // 2,
                              bias=False, init_std=init_std, rng=rng)
        self.bn = nn.BatchNorm2d(out_ch)

    def forward(self, x):
        return F.leaky_relu(self.bn(self.conv(x)))


class _DeconvBNAct(nn.Module):
    """deconv → BN → LeakyReLU."""

    def __init__(self, in_ch, out_ch, k, init_std, rng):
        super().__init__()
        self.deconv = nn.ConvTranspose2d(in_ch, out_ch, k, stride=1, padding=k // 2,
                                         bias=False, init_std=init_std, rng=rng)
        self.bn = nn.BatchNorm2d(out_ch)

    def forward(self, x):
        return F.leaky_relu(self.bn(self.deconv(x)))

    def forward_fused_unpool(self, x, scale: int = 2):
        """Decoder pair as one kernel: unpool ×``scale`` then this deconv.

        Dispatches the fused ``unpool_deconv`` op (single kernel
        boundary, no intermediate up-sampled tensor under ``no_grad``;
        composes the autograd ops under grad, so training numerics are
        identical to the unfused path).
        """
        d = self.deconv
        h = F.fused_unpool_deconv(
            x, d.weight, bias=d.bias, scale=scale, stride=d.stride,
            padding=d.padding, output_padding=d.output_padding,
        )
        return F.leaky_relu(self.bn(h))


class DDnet(nn.Module):
    """DenseNet + Deconvolution network for CT image enhancement.

    Parameters
    ----------
    base_channels:
        Width of the stem and transition layers (paper: 16).
    growth:
        Dense-block growth rate (paper: 16; block output = base + 4·growth).
    num_blocks:
        Number of dense-block stages (paper: 4).  The input side must be
        divisible by ``2**num_blocks``.
    layers_per_block:
        Densely connected layers per block (paper: 4).
    residual:
        When true (default), the network predicts a correction added to
        its input rather than the image directly.  The mapping class is
        identical; at the small training budgets used for CPU-scale
        reproduction it converges far faster.  Set ``False`` for the
        paper's literal direct mapping.
    global_shortcuts:
        §2.2.3's encoder→decoder concatenations.  ``False`` removes
        them (ablation: the paper credits shortcuts with "a
        better-trained network").
    init_std:
        Std of the Gaussian weight init (§3.1.1: 0.01); ``None`` selects
        Kaiming initialization.
    """

    def __init__(
        self,
        in_channels: int = 1,
        base_channels: int = 16,
        growth: int = 16,
        num_blocks: int = 4,
        layers_per_block: int = 4,
        dense_kernel: int = 5,
        deconv_kernel: int = 5,
        residual: bool = True,
        global_shortcuts: bool = True,
        init_std: Optional[float] = 0.01,
        rng=None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.base_channels = base_channels
        self.growth = growth
        self.num_blocks = num_blocks
        self.layers_per_block = layers_per_block
        self.residual = residual
        self.global_shortcuts = global_shortcuts

        # --- convolution network -------------------------------------
        self.stem = _ConvBNAct(in_channels, base_channels, 7, init_std, rng)
        self.pools = nn.ModuleList([nn.MaxPool2d(3, 2, 1) for _ in range(num_blocks)])
        self.blocks = nn.ModuleList()
        self.transitions = nn.ModuleList()
        for _ in range(num_blocks):
            block = DenseBlock(base_channels, growth=growth, num_layers=layers_per_block,
                               kernel_size=dense_kernel, init_std=init_std, rng=rng)
            self.blocks.append(block)
            self.transitions.append(
                _ConvBNAct(block.out_channels, base_channels, 1, init_std, rng)
            )

        # --- deconvolution network ------------------------------------
        # Global shortcuts carry the base-width (16-channel) encoder maps:
        # the transition outputs for the inner stages, the stem for the
        # last — every deconvolution stage therefore sees 32 input
        # channels, consistent with Table 2's [5×5 → 32, 1×1 → 16] pairs
        # and with §5.1.3's conv-vs-deconv operation accounting.
        skip_channels = [base_channels if global_shortcuts else 0] * num_blocks
        self.unpools = nn.ModuleList([nn.UpsampleBilinear2d(2) for _ in range(num_blocks)])
        self.deconvs_a = nn.ModuleList()
        self.deconvs_b = nn.ModuleList()
        for stage, sc in enumerate(skip_channels):
            in_ch = base_channels + sc
            self.deconvs_a.append(_DeconvBNAct(in_ch, 2 * base_channels, deconv_kernel, init_std, rng))
            if stage < num_blocks - 1:
                self.deconvs_b.append(_DeconvBNAct(2 * base_channels, base_channels, 1, init_std, rng))
        # Final 1×1 deconvolution maps straight to the image (no BN/act).
        self.head = nn.ConvTranspose2d(2 * base_channels, in_channels, 1,
                                       init_std=init_std, rng=rng)

    # ------------------------------------------------------------------
    def _check_input(self, x: Tensor) -> None:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"DDnet expects (N, {self.in_channels}, H, W) input; got {x.shape}"
            )
        factor = 2**self.num_blocks
        if x.shape[2] % factor or x.shape[3] % factor:
            raise ValueError(
                f"DDnet input sides must be divisible by {factor}; got {x.shape[2:]}"
            )

    def forward(self, x: Tensor) -> Tensor:
        self._check_input(x)
        stem = self.stem(x)
        # Encoder, recording the transition outputs as global shortcuts.
        skips: List[Tensor] = []
        h = stem
        for block, transition, pool in zip(self.blocks, self.transitions, self.pools):
            h = pool(h)
            h = block(h)
            h = transition(h)
            skips.append(h)
        # Decoder with global shortcuts: deepest transitions first, the
        # stem at full resolution last.
        shortcut_feats = skips[-2::-1] + [stem]
        for stage in range(self.num_blocks):
            if not self.global_shortcuts:
                # No concat between the un-pool and the 5×5 deconv: run
                # the Fig. 9 decoder pair as one fused dispatch.
                h = self.deconvs_a[stage].forward_fused_unpool(
                    h, scale=self.unpools[stage].scale)
            else:
                h = self.unpools[stage](h)
                h = F.concat([h, shortcut_feats[stage]], axis=1)
                h = self.deconvs_a[stage](h)
            if stage < self.num_blocks - 1:
                h = self.deconvs_b[stage](h)
        out = self.head(h)
        if self.residual:
            out = out + x
        return out

    # ------------------------------------------------------------------
    def conv_layer_count(self) -> Tuple[int, int]:
        """Return (convolution layers, deconvolution layers).

        At paper scale this is (37, 8): stem + 4 blocks × 4 layers × 2
        convs + 4 transitions, and 4 stages × 2 deconvs (3 inner stages
        have the [5×5, 1×1] pair; the last pairs its 5×5 with the 1×1
        output head).
        """
        convs = 1 + self.num_blocks * (self.layers_per_block * 2) + self.num_blocks
        deconvs = 2 * self.num_blocks
        return convs, deconvs


def ddnet_layer_table(input_size: int = 512, model: Optional[DDnet] = None) -> List[dict]:
    """Symbolic layer-by-layer shape trace reproducing paper Table 2.

    Returns a list of rows ``{layer, output_size, detail}`` computed from
    the architecture parameters (no tensors are allocated), so the table
    can be produced for the full 512×512 configuration instantly.
    """
    m = model or DDnet()
    base, growth, layers = m.base_channels, m.growth, m.layers_per_block
    dense_out = base + layers * growth
    dk = m.blocks[0].layers[0].conv2.kernel_size
    rows = []
    size = input_size
    rows.append({"layer": "Convolution 1", "output_size": f"{size}x{size}x{base}",
                 "detail": "filter size=7x7, stride=1"})
    for b in range(m.num_blocks):
        size //= 2
        rows.append({"layer": f"Pooling {b + 1}", "output_size": f"{size}x{size}x{base}",
                     "detail": "filter size=3x3, stride=2"})
        rows.append({"layer": f"Dense Block {b + 1}", "output_size": f"{size}x{size}x{dense_out}",
                     "detail": f"filter size=[1x1, {dk}x{dk}] x {layers}, stride=1"})
        rows.append({"layer": f"Convolution {b + 2}", "output_size": f"{size}x{size}x{base}",
                     "detail": "filter size=1x1, stride=1"})
    deconv_k = m.deconvs_a[0].deconv.kernel_size
    d = 1
    for s in range(m.num_blocks):
        size *= 2
        rows.append({"layer": f"Un-pooling {s + 1}", "output_size": f"{size}x{size}x{base}",
                     "detail": "scale factor=2"})
        rows.append({"layer": f"Deconvolution {d}", "output_size": f"{size}x{size}x{2 * base}",
                     "detail": f"filter size={deconv_k}x{deconv_k}, stride=1"})
        d += 1
        out_ch = base if s < m.num_blocks - 1 else m.in_channels
        rows.append({"layer": f"Deconvolution {d}", "output_size": f"{size}x{size}x{out_ch}",
                     "detail": "filter size=1x1, stride=1"})
        d += 1
    return rows
