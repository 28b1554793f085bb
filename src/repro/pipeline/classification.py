"""Classification AI: 3D DenseNet COVID-19 classifier (§2.3.2 / §3.3).

Trains the 3D DenseNet with binary cross-entropy (Eq. 2), Adam, and the
§3.3.1 augmentation stack, then scores (segmented) volumes with the
probability of COVID-19 positivity.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import nn
from repro.models.densenet3d import DenseNet3D
from repro.pipeline.training import Trainer, TrainingHistory, require_float64
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor


class ClassificationAI:
    """3D DenseNet binary classifier for chest CT volumes.

    The paper's learning rate is 1e-6 on full-scale data; at the
    reduced reproduction scale the same recipe converges with a
    proportionally larger rate (default 1e-3), controlled by ``lr``.
    """

    def __init__(
        self,
        model: Optional[DenseNet3D] = None,
        lr: float = 1e-3,
        rng=None,
    ):
        self.model = model or DenseNet3D(rng=rng)
        self.lr = lr
        self.loss = nn.BCEWithLogitsLoss()
        self._trainer: Optional[Trainer] = None

    def _loss_fn(self, logits: Tensor, target: Tensor) -> Tensor:
        return self.loss(logits.reshape(logits.shape[0]), target)

    def train(
        self,
        dataset: nn.Dataset,
        epochs: int = 10,
        batch_size: int = 2,
        val_dataset: Optional[nn.Dataset] = None,
        seed: int = 0,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train on a labeled volume dataset ((N,1,D,H,W) HU/1000, y)."""
        require_float64(self.model, "ClassificationAI")
        optimizer = nn.Adam(self.model.parameters(), lr=self.lr)
        self._trainer = Trainer(self.model, optimizer, self._loss_fn)
        train_loader = nn.DataLoader(dataset, batch_size=batch_size, shuffle=True, seed=seed)
        val_loader = (
            nn.DataLoader(val_dataset, batch_size=batch_size) if val_dataset is not None else None
        )
        return self._trainer.fit(train_loader, epochs, val_loader, verbose=verbose)

    @property
    def history(self) -> Optional[TrainingHistory]:
        return self._trainer.history if self._trainer else None

    def to_dtype(self, dtype) -> "ClassificationAI":
        """Cast the classifier to ``dtype`` (float32 inference fast path)."""
        self.model.to_dtype(dtype)
        return self

    def to_backend(self, backend) -> "ClassificationAI":
        """Select the kernel backend the classifier dispatches on."""
        self.model.to_backend(backend)
        return self

    # ------------------------------------------------------------------
    def predict_proba(self, volume_hu: np.ndarray) -> np.floating:
        """COVID-19 probability for one (D, H, W) HU volume.

        A NumPy scalar of the model's dtype (``np.float32`` in a
        :class:`~repro.pipeline.ComputeCovid19Plus`).
        """
        if volume_hu.ndim != 3:
            raise ValueError(f"expected (D, H, W); got shape {volume_hu.shape}")
        self.model.eval()
        with no_grad():
            p = self.model.predict_proba(
                Tensor(volume_hu[None, None] / 1000.0, dtype=self.model.dtype))
        return p.data[0]

    def predict_proba_batch(self, volumes_hu: Sequence[np.ndarray]) -> np.ndarray:
        """Probabilities for a sequence of (D, H, W) HU volumes.

        Same-shaped volumes run as one stacked (N, 1, D, H, W) forward
        pass (eval-mode batch norm keeps samples independent, so the
        numbers match the per-volume path up to BLAS summation order);
        mixed shapes fall back to per-volume inference.  The array has
        the model's dtype.
        """
        volumes = [np.asarray(v) for v in volumes_hu]
        if not volumes:
            return np.zeros(0, dtype=self.model.dtype)
        if all(v.shape == volumes[0].shape for v in volumes):
            self.model.eval()
            with no_grad():
                p = self.model.predict_proba(
                    Tensor(np.stack(volumes)[:, None] / 1000.0,
                           dtype=self.model.dtype))
            return p.data.reshape(len(volumes))
        return np.array([self.predict_proba(v) for v in volumes])

    def predict(self, volume_hu: np.ndarray, threshold: float = 0.5) -> int:
        """Binary decision at ``threshold`` (the paper tunes 0.061)."""
        return int(self.predict_proba(volume_hu) >= threshold)

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        self.model.save(path)

    def load(self, path: str) -> None:
        self.model.load(path)
