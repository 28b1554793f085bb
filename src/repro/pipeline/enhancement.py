"""Enhancement AI: DDnet training and inference (§3.1).

Wraps :class:`repro.models.ddnet.DDnet` with the paper's exact training
recipe — composite MSE + 0.1·(1 − MS-SSIM) loss (Eq. 1), Adam at 1e-4,
exponential ×0.8/epoch LR decay, batch 1 by default — plus slice- and
volume-level inference over [0, 1]-normalized images (§3.1.1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.models.ddnet import DDnet
from repro.nn.losses import CompositeLoss
from repro.pipeline.training import Trainer, TrainingHistory, require_float64
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor


class EnhancementAI:
    """DDnet-based CT image enhancement tool.

    Parameters mirror §3.1.1; network width/depth are parametric so the
    tool trains at reduced scale on CPU (see DESIGN.md scale policy).
    """

    def __init__(
        self,
        model: Optional[DDnet] = None,
        lr: float = 1e-4,
        lr_gamma: float = 0.8,
        loss_alpha: float = 0.1,
        msssim_levels: int = 2,
        msssim_window: int = 7,
        rng=None,
    ):
        self.model = model or DDnet(rng=rng)
        self.lr = lr
        self.lr_gamma = lr_gamma
        self.loss = CompositeLoss(alpha=loss_alpha, levels=msssim_levels,
                                  window_size=msssim_window)
        self._trainer: Optional[Trainer] = None

    # ------------------------------------------------------------------
    def train(
        self,
        dataset: nn.Dataset,
        epochs: int = 50,
        batch_size: int = 1,
        val_dataset: Optional[nn.Dataset] = None,
        seed: int = 0,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train on (low-dose, full-dose) pairs; returns loss history."""
        require_float64(self.model, "EnhancementAI")
        optimizer = nn.Adam(self.model.parameters(), lr=self.lr)
        scheduler = nn.ExponentialLR(optimizer, gamma=self.lr_gamma)
        self._trainer = Trainer(self.model, optimizer, self.loss, scheduler)
        train_loader = nn.DataLoader(dataset, batch_size=batch_size, shuffle=True, seed=seed)
        val_loader = (
            nn.DataLoader(val_dataset, batch_size=batch_size) if val_dataset is not None else None
        )
        return self._trainer.fit(train_loader, epochs, val_loader, verbose=verbose)

    @property
    def history(self) -> Optional[TrainingHistory]:
        return self._trainer.history if self._trainer else None

    def to_dtype(self, dtype) -> "EnhancementAI":
        """Cast DDnet to ``dtype`` (float32 inference fast path)."""
        self.model.to_dtype(dtype)
        return self

    def to_backend(self, backend) -> "EnhancementAI":
        """Select the kernel backend DDnet dispatches on."""
        self.model.to_backend(backend)
        return self

    # ------------------------------------------------------------------
    def enhance_slice(self, image: np.ndarray) -> np.ndarray:
        """Enhance one [0, 1] slice of shape (H, W)."""
        if image.ndim != 2:
            raise ValueError(f"expected (H, W) slice; got shape {image.shape}")
        self.model.eval()
        with no_grad():
            out = self.model(Tensor(image[None, None], dtype=self.model.dtype))
        return np.clip(out.data[0, 0], 0.0, 1.0)

    def enhance_batch(self, images: np.ndarray) -> np.ndarray:
        """Enhance a (N, 1, H, W) batch."""
        if images.ndim != 4:
            raise ValueError(f"expected (N, 1, H, W); got shape {images.shape}")
        self.model.eval()
        with no_grad():
            out = self.model(Tensor(images, dtype=self.model.dtype))
        return np.clip(out.data, 0.0, 1.0)

    def enhance_volume(self, volume: np.ndarray, chunk: int = 8) -> np.ndarray:
        """Enhance a (D, H, W) volume slice-wise in chunks.

        Chunked processing mirrors the paper's 512×512×32 inference
        granularity while bounding memory.
        """
        if volume.ndim != 3:
            raise ValueError(f"expected (D, H, W) volume; got shape {volume.shape}")
        out = np.empty_like(volume, dtype=np.float64)
        for start in range(0, volume.shape[0], chunk):
            batch = volume[start : start + chunk, None]
            out[start : start + chunk] = self.enhance_batch(batch)[:, 0]
        return out

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        self.model.save(path)

    def load(self, path: str) -> None:
        self.model.load(path)
