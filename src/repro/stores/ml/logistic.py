"""Logistic regression trained with mini-batch SGD.

Used as the lighter-weight baseline model in the Snorkel-style labeling
workload and as a comparison point against the MLP in the examples.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from repro.exceptions import DataModelError
from repro.stores.ml.tensor_ops import SGDModel, TensorOps, log_loss, sigmoid


class LogisticRegression(SGDModel):
    """Binary logistic regression on dense features."""

    def __init__(self, input_dim: int, *, learning_rate: float = 0.1,
                 l2: float = 0.0, ops: TensorOps | None = None) -> None:
        if input_dim <= 0:
            raise DataModelError("input_dim must be positive")
        self.input_dim = input_dim
        self.learning_rate = learning_rate
        self.l2 = l2
        self.ops = ops if ops is not None else TensorOps()
        self.weights = np.zeros(input_dim, dtype=np.float64)
        self.bias = 0.0
        self._work = partial(_work, input_dim)

    def fit(self, x: np.ndarray, y: np.ndarray, *, epochs: int = 10,
            batch_size: int = 64, seed: int = 0) -> list[float]:
        """Train with mini-batch SGD; returns the per-epoch log-loss curve."""
        y, scored = self._sgd(x, y, epochs, batch_size, seed)
        return [log_loss(y, p) for p in scored]

    def _proba(self, x: np.ndarray) -> np.ndarray:
        logits = x @ self.weights
        logits += self.bias
        return sigmoid(logits)

    def _step(self, x_batch: np.ndarray, y_batch: np.ndarray) -> None:
        error = self._proba(x_batch) - y_batch
        grad_w = x_batch.T @ error
        grad_w /= x_batch.shape[0]
        grad_w += self.l2 * self.weights
        grad_w *= self.learning_rate
        self.weights -= grad_w
        self.bias -= self.learning_rate * float(error.mean())


@lru_cache(maxsize=256)
def _work(dims: int, rows: int, step: bool) -> tuple[int, int, int]:
    """Flops and bytes of scoring ``rows`` rows of ``dims`` features and, if
    ``step``, of the weight gradient: each GEMV counts ``2mk`` flops and its
    operands' bytes, the sigmoid four flops and one float64 per row."""
    gemv_flops, gemv_bytes = 2 * rows * dims, 8 * (rows * dims + dims + rows)
    flops, moved = gemv_flops + 4 * rows, gemv_bytes + 8 * rows
    if step:
        flops, moved = flops + gemv_flops, moved + gemv_bytes
    return flops, moved, 0

