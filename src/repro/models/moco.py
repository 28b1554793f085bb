"""Momentum-contrastive pretraining (He et al., the §6.2.1 baseline).

He et al. achieve their sample-efficient COVID-19 CT classification by
coupling transfer learning with momentum contrastive learning (MoCo).
This module implements the MoCo mechanism on the 2D slice encoder:

- a **query encoder** and a slow-moving **key encoder** (EMA of the
  query weights),
- a FIFO **queue** of past key embeddings serving as negatives,
- the **InfoNCE** objective: the two augmentations of one slice must
  match against each other and mismatch against the queue.

Pretraining runs on *unlabeled* slices (augmented with the §3.3.1
transform stack); :meth:`MoCoLite.linear_probe` then evaluates the
learned representation with a logistic head on a small labeled set —
the sample-efficiency protocol the related work reports.

Scale caveat: instance discrimination among procedurally generated
chest phantoms is *far* harder than among natural images — every
"instance" shares the same anatomy template — so at this repository's
CPU scale the learned alignment gap is real but modest (the test suite
asserts the direction, not ImageNet-class retrieval).  Two collapse
modes familiar from the MoCo literature appear here too and are handled
explicitly: batch-norm statistic leakage (frozen, pre-warmed BN — the
role of MoCo's shuffling BN) and a dominant constant feature component
(running feature centering before L2 normalization).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

import repro.nn as nn
from repro.backend.registry import clear_kernel_caches
from repro.models.baselines import Classifier2D
from repro.nn.augment import contrastive_augmentation
from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F


def _l2_normalize(x: Tensor, eps: float = 1e-8) -> Tensor:
    norm = ((x * x).sum(axis=1, keepdims=True) + eps).sqrt()
    return x / norm


class MoCoLite:
    """Compact MoCo: momentum key encoder + negative queue + InfoNCE.

    Parameters
    ----------
    encoder:
        A :class:`Classifier2D` whose ``features`` method provides the
        trunk; a fresh projection head is attached on top.
    proj_dim:
        Embedding dimension of the contrastive space.
    queue_size:
        Number of negative keys kept (a power of the batch size).
    momentum:
        EMA coefficient for the key encoder (paper default 0.999; the
        tiny-scale default here is faster-moving).
    temperature:
        InfoNCE softmax temperature.
    """

    def __init__(
        self,
        encoder: Optional[Classifier2D] = None,
        proj_dim: int = 8,
        queue_size: int = 64,
        momentum: float = 0.95,
        temperature: float = 0.5,
        augment: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        rng=None,
    ):
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.encoder_q = encoder or Classifier2D(rng=np.random.default_rng(0))
        self.proj_q = nn.Linear(self.encoder_q.feature_dim, proj_dim,
                                rng=np.random.default_rng(1))
        # Key branch: same architectures, synchronized weights.
        self.encoder_k = Classifier2D(
            in_channels=self.encoder_q.in_channels,
            rng=np.random.default_rng(2),
        ) if encoder is None else self._clone_encoder(encoder)
        self.proj_k = nn.Linear(self.encoder_q.feature_dim, proj_dim,
                                rng=np.random.default_rng(3))
        self._sync_key_branch()
        self.momentum = momentum
        self.temperature = temperature
        self.queue = rng.normal(size=(queue_size, proj_dim))
        # Queue maintenance, not a network op.  # kernel-lint: allow
        self.queue /= np.linalg.norm(self.queue, axis=1, keepdims=True)
        self._queue_ptr = 0
        self.augment = augment or contrastive_augmentation(rng)
        self.feature_center = np.zeros(self.encoder_q.feature_dim)
        self._rng = rng

    @staticmethod
    def _clone_encoder(encoder: Classifier2D) -> Classifier2D:
        clone = Classifier2D(in_channels=encoder.in_channels,
                             base=encoder.base, growth=encoder.growth,
                             num_blocks=encoder.num_blocks,
                             rng=np.random.default_rng(99))
        clone.load_state_dict(encoder.state_dict())
        return clone

    def _sync_key_branch(self) -> None:
        self.encoder_k.load_state_dict(self.encoder_q.state_dict())
        self.proj_k.load_state_dict(self.proj_q.state_dict())

    def _momentum_update(self) -> None:
        for (qk, qp), (kk, kp) in [
            *zip(self.encoder_q.named_parameters(), self.encoder_k.named_parameters()),
            *zip(self.proj_q.named_parameters(), self.proj_k.named_parameters()),
        ]:
            kp.data *= self.momentum
            kp.data += (1.0 - self.momentum) * qp.data
        clear_kernel_caches()  # key-branch weights changed in place

    def _embed_q(self, x: np.ndarray) -> Tensor:
        feats = self.encoder_q.features(Tensor(x)) - Tensor(self.feature_center)
        return _l2_normalize(self.proj_q(feats))

    def _embed_k(self, x: np.ndarray, update_center: bool = False) -> np.ndarray:
        self.encoder_k.eval()
        with no_grad():
            raw = self.encoder_k.features(Tensor(x))
            if update_center:
                # Track the drifting constant component of the feature
                # space; a stale center regrows a dominant direction that
                # erases instance information after L2 normalization.
                self.feature_center = 0.9 * self.feature_center + 0.1 * raw.data.mean(axis=0)
            feats = raw - Tensor(self.feature_center)
            return _l2_normalize(self.proj_k(feats)).data

    def _enqueue(self, keys: np.ndarray) -> None:
        for key in keys:
            self.queue[self._queue_ptr] = key
            self._queue_ptr = (self._queue_ptr + 1) % len(self.queue)

    def contrastive_loss(self, slices: np.ndarray) -> Tuple[Tensor, np.ndarray]:
        """InfoNCE loss for one batch of (N, 1, H, W) unlabeled slices."""
        view_q = np.stack([self.augment(s) for s in slices])
        view_k = np.stack([self.augment(s) for s in slices])
        self.encoder_q.eval()  # frozen-BN contrastive training (see pretrain)
        q = self._embed_q(view_q)                     # (N, D), grads on
        k = self._embed_k(view_k, update_center=True)  # (N, D), constant
        pos = (q * Tensor(k)).sum(axis=1, keepdims=True)      # (N, 1)
        neg = q @ Tensor(self.queue.T.copy())                        # (N, Q)
        logits = F.concat([pos, neg], axis=1) / self.temperature
        log_probs = F.log_softmax(logits, axis=1)
        loss = -log_probs[:, 0].mean()
        return loss, k

    def warmup_batchnorm(self, slices: np.ndarray, passes: int = 3) -> None:
        """Populate BN running statistics, then freeze them.

        Batch-mode BN lets InfoNCE cheat through batch statistics and
        collapse (the problem MoCo's shuffling-BN solves); with frozen,
        pre-warmed statistics both branches see one stable feature
        distribution and only the weights learn.
        """
        self.encoder_q.train()
        with no_grad():
            for _ in range(passes):
                feats = self.encoder_q.features(
                    Tensor(np.stack([self.augment(s) for s in slices]))
                )
        self.encoder_q.eval()
        with no_grad():
            feats = self.encoder_q.features(Tensor(np.stack(list(slices))))
        # Center the feature space: GAP features carry a large constant
        # component that would dominate the L2-normalized embeddings and
        # erase instance information.
        self.feature_center = feats.data.mean(axis=0)
        self._sync_key_branch()
        self.encoder_k.eval()

    def pretrain(self, slices: np.ndarray, epochs: int = 5, batch_size: int = 8,
                 lr: float = 5e-4, seed: int = 0) -> List[float]:
        """Contrastive pretraining on unlabeled (N, 1, H, W) slices."""
        params = self.encoder_q.parameters() + self.proj_q.parameters()
        opt = nn.Adam(params, lr=lr)
        order_rng = np.random.default_rng(seed)
        losses: List[float] = []
        n = len(slices)
        self.warmup_batchnorm(slices[: min(n, 4 * batch_size)])
        for _ in range(epochs):
            order = order_rng.permutation(n)
            epoch_losses = []
            for start in range(0, n - batch_size + 1, batch_size):
                batch = slices[order[start : start + batch_size]]
                opt.zero_grad()
                loss, keys = self.contrastive_loss(batch)
                loss.backward()
                opt.step()
                self._momentum_update()
                self._enqueue(keys)
                epoch_losses.append(loss.item())
            # Scalar epoch-loss logging.  # kernel-lint: allow
            losses.append(float(np.mean(epoch_losses)))
        return losses

    # ------------------------------------------------------------------
    def embed(self, slices: np.ndarray) -> np.ndarray:
        """Frozen-trunk feature vectors for (N, 1, H, W) slices."""
        self.encoder_q.eval()
        with no_grad():
            return self.encoder_q.features(Tensor(slices)).data

    def linear_probe(
        self,
        train_slices: np.ndarray, train_labels: np.ndarray,
        test_slices: np.ndarray,
        epochs: int = 60, lr: float = 5e-2,
    ) -> np.ndarray:
        """Fit a logistic head on frozen features; return test scores."""
        feats = self.embed(train_slices)
        head = nn.Linear(feats.shape[1], 1, rng=np.random.default_rng(0))
        opt = nn.Adam(head.parameters(), lr=lr)
        loss_fn = nn.BCEWithLogitsLoss()
        y = Tensor(np.asarray(train_labels, dtype=np.float64))
        x = Tensor(feats)
        for _ in range(epochs):
            opt.zero_grad()
            logits = head(x)
            loss = loss_fn(logits.reshape(len(feats)), y)
            loss.backward()
            opt.step()
        test_feats = self.embed(test_slices)
        with no_grad():
            logits = head(Tensor(test_feats))
            return F.sigmoid(logits.reshape(len(test_feats))).data
