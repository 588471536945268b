"""A small multilayer perceptron trained with mini-batch SGD.

This is the "deep neural network engine" of the paper's Figure 2 (predicting
long vs short ICU stay) and the model inside the Snorkel-style loop of
Figure 3.  All dense math goes through :class:`~repro.stores.ml.tensor_ops.TensorOps`
so offload-eligible GEMM work is counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DataModelError
from repro.stores.ml.tensor_ops import TensorOps


@dataclass
class TrainingHistory:
    """Per-epoch loss/accuracy curves produced by :meth:`MLPClassifier.fit`."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        """Training accuracy after the last epoch."""
        return self.accuracies[-1] if self.accuracies else float("nan")


class MLPClassifier:
    """A binary classifier: input -> ReLU hidden layers -> sigmoid output."""

    def __init__(self, input_dim: int, hidden_dims: tuple[int, ...] = (32,),
                 *, learning_rate: float = 0.05, seed: int = 0,
                 ops: TensorOps | None = None) -> None:
        if input_dim <= 0:
            raise DataModelError("input_dim must be positive")
        if any(h <= 0 for h in hidden_dims):
            raise DataModelError("hidden layer sizes must be positive")
        self.input_dim = input_dim
        self.hidden_dims = tuple(hidden_dims)
        self.learning_rate = learning_rate
        self.ops = ops if ops is not None else TensorOps()
        rng = np.random.default_rng(seed)
        dims = [input_dim, *hidden_dims, 1]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    # -- inference -----------------------------------------------------------------

    def _forward(self, x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Forward pass returning pre-activations and activations per layer."""
        activations = [x]
        pre_activations = []
        current = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = self.ops.add(self.ops.gemm(current, w), b)
            pre_activations.append(z)
            if i < len(self.weights) - 1:
                current = self.ops.relu(z)
            else:
                current = self.ops.sigmoid(z)
            activations.append(current)
        return pre_activations, activations

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each row of ``x``."""
        x = self._check_input(x)
        _, activations = self._forward(x)
        return activations[-1].reshape(-1)

    def predict(self, x: np.ndarray, *, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions."""
        return (self.predict_proba(x) >= threshold).astype(np.int64)

    # -- training ----------------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray, *, epochs: int = 5,
            batch_size: int = 32, shuffle: bool = True, seed: int = 0
            ) -> TrainingHistory:
        """Train with mini-batch SGD on binary cross-entropy loss."""
        x = self._check_input(x)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if len(y) != x.shape[0]:
            raise DataModelError("x and y have different numbers of rows")
        if epochs <= 0 or batch_size <= 0:
            raise DataModelError("epochs and batch_size must be positive")
        rng = np.random.default_rng(seed)
        history = TrainingHistory()
        n = x.shape[0]
        if n == 0:   # an epoch over no rows has no loss to record
            return history
        for _ in range(epochs):
            order = rng.permutation(n) if shuffle else np.arange(n)
            for start in range(0, n, batch_size):
                batch_idx = order[start:start + batch_size]
                self._step(x[batch_idx], y[batch_idx])
            probabilities = self.predict_proba(x)
            history.losses.append(_binary_cross_entropy(y, probabilities))
            history.accuracies.append(float(np.mean((probabilities >= 0.5) == (y >= 0.5))))
        return history

    def _step(self, x_batch: np.ndarray, y_batch: np.ndarray) -> None:
        """One SGD step on a batch."""
        batch = x_batch.shape[0]
        pre_activations, activations = self._forward(x_batch)
        output = activations[-1].reshape(-1)
        # dL/dz for sigmoid + BCE simplifies to (p - y).
        delta = ((output - y_batch) / batch).reshape(-1, 1)
        for layer in reversed(range(len(self.weights))):
            a_prev = activations[layer]
            grad_w = self.ops.gemm(a_prev.T, delta)
            grad_b = delta.sum(axis=0)
            if layer > 0:
                upstream = self.ops.gemm(delta, self.weights[layer].T)
                delta = upstream * self.ops.relu_grad(pre_activations[layer - 1])
            self.weights[layer] -= self.learning_rate * grad_w
            self.biases[layer] -= self.learning_rate * grad_b

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.input_dim:
            raise DataModelError(
                f"model expects {self.input_dim} features, got {x.shape[1]}"
            )
        return x

    def parameter_count(self) -> int:
        """Total number of trainable parameters."""
        return int(sum(w.size for w in self.weights) + sum(b.size for b in self.biases))


def _binary_cross_entropy(y: np.ndarray, p: np.ndarray) -> float:
    eps = 1e-12
    p = np.clip(p, eps, 1.0 - eps)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
