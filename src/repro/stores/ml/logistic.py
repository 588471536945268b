"""Logistic regression trained with mini-batch SGD.

Used as the lighter-weight baseline model in the Snorkel-style labeling
workload and as a comparison point against the MLP in the examples.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataModelError
from repro.stores.ml.tensor_ops import TensorOps


class LogisticRegression:
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

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each row."""
        x = self._check_input(x)
        logits = self.ops.gemv(x, self.weights) + self.bias
        return self.ops.sigmoid(logits)

    def predict(self, x: np.ndarray, *, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions."""
        return (self.predict_proba(x) >= threshold).astype(np.int64)

    def fit(self, x: np.ndarray, y: np.ndarray, *, epochs: int = 10,
            batch_size: int = 64, seed: int = 0) -> list[float]:
        """Train with mini-batch SGD; returns the per-epoch log-loss curve."""
        x = self._check_input(x)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if len(y) != x.shape[0]:
            raise DataModelError("x and y have different numbers of rows")
        if epochs <= 0 or batch_size <= 0:
            raise DataModelError("epochs and batch_size must be positive")
        rng = np.random.default_rng(seed)
        losses = []
        n = x.shape[0]
        if n == 0:   # an epoch over no rows has no loss to record
            return losses
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                self._step(x[idx], y[idx])
            probabilities = self.predict_proba(x)
            losses.append(_log_loss(y, probabilities))
        return losses

    def _step(self, x_batch: np.ndarray, y_batch: np.ndarray) -> None:
        batch = x_batch.shape[0]
        probabilities = self.ops.sigmoid(self.ops.gemv(x_batch, self.weights) + self.bias)
        error = probabilities - y_batch
        grad_w = self.ops.gemv(x_batch.T, error) / batch + self.l2 * self.weights
        grad_b = float(error.mean())
        self.weights -= self.learning_rate * grad_w
        self.bias -= self.learning_rate * grad_b

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.input_dim:
            raise DataModelError(
                f"model expects {self.input_dim} features, got {x.shape[1]}"
            )
        return x


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    eps = 1e-12
    p = np.clip(p, eps, 1.0 - eps)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
