"""Generic trainer with loss-curve capture (Fig. 11).

A thin epoch loop shared by the Enhancement and Classification tools:
batched iteration, optimizer + LR-schedule stepping, optional
per-epoch validation, and a :class:`TrainingHistory` that records the
train/validation loss series the paper plots in Fig. 11.

Pass ``telemetry=`` (a :class:`repro.telemetry.EventBus`) and the loop
emits onto the shared spine: one ``step`` event per optimizer step and
one ``epoch`` event per epoch (source ``pipeline.trainer``).  Pass
``clock=`` (a :class:`repro.des.EventLoop`) too and events are stamped
with the loop's simulated seconds — advancing it by ``step_time_s``
per optimizer step — so a trainer sharing a spine with other actors
speaks the same timeline; standalone, the cumulative step count is the
fallback clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.nn.data import DataLoader
from repro.nn.lr_scheduler import LRScheduler
from repro.nn.module import Module
from repro.nn.optim import Optimizer
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor


@dataclass
class TrainingHistory:
    """Per-epoch loss series (the Fig. 11 curves)."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    lr: List[float] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    def improved(self) -> bool:
        """Did training reduce the loss overall?"""
        return self.epochs >= 2 and self.train_loss[-1] < self.train_loss[0]


def clip_gradients(parameters, max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (as ``torch.nn.utils.clip_grad_norm_``).
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total_sq = 0.0
    grads = [p.grad for p in parameters if p.grad is not None]
    for g in grads:
        total_sq += float((g * g).sum())
    norm = total_sq**0.5
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for g in grads:
            g *= scale
    return norm


def require_float64(model: Module, tool: str) -> None:
    """Refuse to train ``model`` in anything but float64.

    Training runs in double precision; a tool taken from a
    :class:`~repro.pipeline.ComputeCovid19Plus` holds float32 weights
    and must be cast back explicitly first.
    """
    if model.dtype != np.float64:
        raise ValueError(
            f"{tool} trains in float64, but its model is {model.dtype}; "
            f"call to_dtype(np.float64) on it first")


class Trainer:
    """Epoch-driven training loop.

    Parameters
    ----------
    model, optimizer, loss_fn:
        The training triple; ``loss_fn(pred, target) -> Tensor``.
    scheduler:
        Optional per-epoch LR schedule (paper: ExponentialLR 0.8).
    target_transform:
        Maps the raw batch target before the loss (e.g. label reshape).
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn: Callable[[Tensor, Tensor], Tensor],
        scheduler: Optional[LRScheduler] = None,
        grad_clip_norm: Optional[float] = None,
        early_stop_patience: Optional[int] = None,
        early_stop_min_delta: float = 0.0,
        telemetry=None,
        clock=None,
        step_time_s: float = 0.0,
    ):
        if grad_clip_norm is not None and grad_clip_norm <= 0:
            raise ValueError("grad_clip_norm must be positive")
        if early_stop_patience is not None and early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if step_time_s < 0:
            raise ValueError("step_time_s must be >= 0")
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.scheduler = scheduler
        self.grad_clip_norm = grad_clip_norm
        self.early_stop_patience = early_stop_patience
        self.early_stop_min_delta = early_stop_min_delta
        self.history = TrainingHistory()
        #: Optional repro.telemetry.EventBus; see the module docstring.
        self.telemetry = telemetry
        #: Optional repro.des.EventLoop sharing the simulated timeline.
        self.clock = clock
        self.step_time_s = step_time_s
        self._step = 0  # cumulative optimizer steps == fallback clock

    def _emit(self, kind: str, **payload) -> None:
        if self.telemetry is not None:
            # Stamp from the shared simulated clock when attached; the
            # step index is only the standalone fallback.
            t = float(self.clock.now) if self.clock is not None \
                else float(self._step)
            self.telemetry.emit(t, kind, "pipeline.trainer", **payload)

    def _epoch_loss(self, loader: DataLoader, train: bool) -> float:
        losses = []
        self.model.train(train)
        for batch in loader:
            x, y = batch
            if train:
                self.optimizer.zero_grad()
                pred = self.model(Tensor(x))
                loss = self.loss_fn(pred, Tensor(y))
                loss.backward()
                if self.grad_clip_norm is not None:
                    clip_gradients(self.optimizer.params, self.grad_clip_norm)
                self.optimizer.step()
                self._step += 1
                if self.clock is not None and self.step_time_s:
                    self.clock.advance(self.step_time_s)
                losses.append(loss.item())
                self._emit("step", step=self._step, loss=loss.item(),
                           lr=self.optimizer.lr)
            else:
                with no_grad():
                    pred = self.model(Tensor(x))
                    losses.append(self.loss_fn(pred, Tensor(y)).item())
        return float(np.mean(losses)) if losses else float("nan")

    def fit(
        self,
        train_loader: DataLoader,
        epochs: int,
        val_loader: Optional[DataLoader] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Run ``epochs`` epochs; returns the accumulated history."""
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.early_stop_patience is not None and val_loader is None:
            raise ValueError("early stopping requires a validation loader")
        best_val = float("inf")
        stale = 0
        for epoch in range(epochs):
            train_loss = self._epoch_loss(train_loader, train=True)
            self.history.train_loss.append(train_loss)
            self.history.lr.append(self.optimizer.lr)
            if val_loader is not None:
                val_loss = self._epoch_loss(val_loader, train=False)
                self.history.val_loss.append(val_loss)
            self._emit("epoch", epoch=epoch + 1, train_loss=train_loss,
                       val_loss=(self.history.val_loss[-1]
                                 if self.history.val_loss else None),
                       lr=self.optimizer.lr)
            if self.scheduler is not None:
                self.scheduler.step()
            if verbose:
                msg = f"epoch {epoch + 1}/{epochs} train={train_loss:.5f}"
                if self.history.val_loss:
                    msg += f" val={self.history.val_loss[-1]:.5f}"
                print(msg)
            if self.early_stop_patience is not None:
                if val_loss < best_val - self.early_stop_min_delta:
                    best_val = val_loss
                    stale = 0
                else:
                    stale += 1
                    if stale >= self.early_stop_patience:
                        self.history.stopped_early = True
                        break
        return self.history
