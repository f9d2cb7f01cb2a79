"""Generic mini-batch trainer for supervised and autoencoding objectives."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn.data import batch_iterator
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.utils.random import check_random_state

__all__ = ["TrainingHistory", "Trainer"]


@dataclass
class TrainingHistory:
    """Per-epoch record of training losses."""

    epoch_losses: list[float] = field(default_factory=list)

    def append(self, loss: float) -> None:
        self.epoch_losses.append(float(loss))

    @property
    def final_loss(self) -> float:
        """Loss of the last completed epoch (NaN if never trained)."""
        if not self.epoch_losses:
            return float("nan")
        return self.epoch_losses[-1]

    def __len__(self) -> int:
        return len(self.epoch_losses)


class Trainer:
    """Minimal training loop: batches, forward, loss, backward, optimizer step.

    Parameters
    ----------
    model:
        Any :class:`~repro.nn.module.Module`.
    optimizer:
        Adam optimizer constructed over ``model.parameters()``.
    loss_fn:
        Callable ``(prediction, target) -> (value, grad_wrt_prediction)``.
    batch_size, epochs:
        Mini-batch size and number of passes over the data.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Adam,
        loss_fn: Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]],
        *,
        batch_size: int = 128,
        epochs: int = 10,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        if epochs < 1:
            raise ValueError("epochs must be at least 1")
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.batch_size = batch_size
        self.epochs = epochs
        self._rng = check_random_state(random_state)

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> TrainingHistory:
        """Train the model; when ``y`` is omitted the target is ``X`` (autoencoding)."""
        X = np.asarray(X, dtype=np.float64)
        target = X if y is None else np.asarray(y)
        history = TrainingHistory()
        self.model.train()
        for _ in range(self.epochs):
            epoch_loss = 0.0
            n_batches = 0
            for batch_x, batch_t in batch_iterator(
                X, target, batch_size=self.batch_size, random_state=self._rng
            ):
                prediction = self.model(batch_x)
                loss, grad = self.loss_fn(prediction, batch_t)
                self.model.zero_grad()
                self.model.backward(grad)
                self.optimizer.step()
                epoch_loss += loss
                n_batches += 1
            history.append(epoch_loss / max(n_batches, 1))
        self.model.eval()
        return history
