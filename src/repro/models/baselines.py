"""2D classification baselines for the related-work comparison (Table 10).

The 2D-CNN family in §6.2.1 (He et al., M-inception, DRE-Net, Li et
al.) classifies manually selected 2D slices rather than whole volumes.
:class:`Classifier2D` is a compact DenseNet-flavoured 2D slice
classifier, and :class:`SliceClassifier` lifts any 2D classifier to
volumes by score-pooling over slices — making explicit the manual
slice-selection burden the paper criticizes (Table 10's "Data labeling:
Manual" column).
"""

from __future__ import annotations

from typing import Callable, Literal

import numpy as np

from repro import nn
from repro.models.dense_block import DenseBlock
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class Classifier2D(nn.Module):
    """DenseNet-style 2D binary slice classifier (logit output)."""

    def __init__(self, in_channels: int = 1, base: int = 8, growth: int = 8,
                 num_blocks: int = 2, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.num_blocks = num_blocks
        self.base = base
        self.growth = growth
        self.stem = nn.Conv2d(in_channels, base, 3, padding=1, bias=False,
                              init_std=None, rng=rng)
        self.stem_bn = nn.BatchNorm2d(base)
        self.blocks = nn.ModuleList()
        self.transitions = nn.ModuleList()
        ch = base
        for _ in range(num_blocks):
            block = DenseBlock(ch, growth=growth, num_layers=2, kernel_size=3,
                               init_std=None, rng=rng)
            self.blocks.append(block)
            ch = max(1, block.out_channels // 2)
            self.transitions.append(nn.Conv2d(block.out_channels, ch, 1,
                                              init_std=None, rng=rng))
        self.gap = nn.GlobalAvgPool()
        self.fc = nn.Linear(ch, 1, rng=rng)

    @nn.backend_scoped
    def features(self, x: Tensor) -> Tensor:
        """Pooled feature vectors (N, C) — the contrastive-learning trunk.

        An entry point of its own (``MoCoLite`` embeds through it), so
        it carries the module's backend scope like ``forward``.
        """
        h = F.leaky_relu(self.stem_bn(self.stem(x)))
        h = F.max_pool_nd(h, 2, 2)
        for block, tr in zip(self.blocks, self.transitions):
            h = tr(block(h))
            h = F.max_pool_nd(h, 2, 2)
        return self.gap(h)

    @property
    def feature_dim(self) -> int:
        return self.fc.in_features

    def forward(self, x: Tensor) -> Tensor:
        return self.fc(self.features(x))

    def predict_proba(self, x: Tensor) -> Tensor:
        logits = self(x)
        return F.sigmoid(logits.reshape(logits.shape[0]))


class SliceClassifier:
    """Volume classifier built from a 2D slice model (the §6.2.1 recipe).

    Slices are scored independently; the volume score pools them with
    ``max`` (a single convincing slice decides) or ``mean``.  The
    ``slice_selector`` models the manual filtering step: it picks which
    slices are scored at all.
    """

    def __init__(
        self,
        model: Classifier2D,
        pooling: Literal["max", "mean"] = "max",
        slice_selector: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self.model = model
        if pooling not in ("max", "mean"):
            raise ValueError(f"pooling must be 'max' or 'mean'; got {pooling!r}")
        self.pooling = pooling
        self.slice_selector = slice_selector

    def predict_proba(self, volume: np.ndarray) -> float:
        """Probability for a single (D, H, W) volume."""
        from repro.tensor import no_grad

        if volume.ndim != 3:
            raise ValueError(f"expected (D, H, W) volume; got {volume.shape}")
        slices = volume
        if self.slice_selector is not None:
            keep = self.slice_selector(volume)
            slices = volume[keep]
            if len(slices) == 0:
                slices = volume  # selector rejected everything: fall back
        self.model.eval()
        with no_grad():
            probs = self.model.predict_proba(Tensor(slices[:, None])).data
        return float(probs.max() if self.pooling == "max" else probs.mean())


def central_slice_selector(fraction: float = 0.5) -> Callable[[np.ndarray], np.ndarray]:
    """Keep the central ``fraction`` of slices (a crude manual filter)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")

    def select(volume: np.ndarray) -> np.ndarray:
        d = volume.shape[0]
        half = max(1, int(d * fraction)) // 2
        mid = d // 2
        keep = np.zeros(d, dtype=bool)
        keep[max(0, mid - half) : min(d, mid + half + 1)] = True
        return keep

    return select
