"""A small multilayer perceptron trained with mini-batch SGD.

This is the "deep neural network engine" of the paper's Figure 2 (predicting
long vs short ICU stay) and the model inside the Snorkel-style loop of
Figure 3.  Its math is plain numpy; each ``fit`` and ``predict_proba`` adds its
GEMM work to the shared :class:`~repro.stores.ml.tensor_ops.OpCounter` once, from
a closed form over the layer sizes and row counts (:func:`_work`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from repro.exceptions import DataModelError
from repro.stores.ml.tensor_ops import SGDModel, TensorOps, log_loss, sigmoid


@dataclass
class TrainingHistory:
    """Per-epoch loss/accuracy curves produced by :meth:`MLPClassifier.fit`."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        """Training accuracy after the last epoch."""
        return self.accuracies[-1] if self.accuracies else float("nan")


class MLPClassifier(SGDModel):
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
        self._dims = (input_dim, *self.hidden_dims, 1)
        self._work = partial(_work, self._dims)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(self._dims[:-1], self._dims[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    # -- inference -----------------------------------------------------------------

    def _forward(self, x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Forward pass returning pre-activations and activations per layer."""
        activations = [x]
        pre_activations = []
        current = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = current @ w
            z += b
            pre_activations.append(z)
            current = sigmoid(z) if i == last else np.maximum(z, 0.0)
            activations.append(current)
        return pre_activations, activations

    def _proba(self, x: np.ndarray) -> np.ndarray:
        return self._forward(x)[1][-1].reshape(-1)

    # -- training ----------------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray, *, epochs: int = 5,
            batch_size: int = 32, shuffle: bool = True, seed: int = 0
            ) -> TrainingHistory:
        """Train with mini-batch SGD on binary cross-entropy loss."""
        y, scored = self._sgd(x, y, epochs, batch_size, seed, shuffle)
        return TrainingHistory([log_loss(y, p) for p in scored],
                               [float(np.mean((p >= 0.5) == (y >= 0.5))) for p in scored])

    def _step(self, x_batch: np.ndarray, y_batch: np.ndarray) -> None:
        """One SGD step on a batch."""
        pre_activations, activations = self._forward(x_batch)
        # dL/dz for sigmoid + BCE simplifies to (p - y).
        delta = ((activations[-1].reshape(-1) - y_batch) / x_batch.shape[0]).reshape(-1, 1)
        for layer in reversed(range(len(self.weights))):
            weights = self.weights[layer]
            grad_w = activations[layer].T @ delta
            grad_b = delta.sum(axis=0)
            if layer > 0:
                delta = delta @ weights.T
                delta *= pre_activations[layer - 1] > 0
            grad_w *= self.learning_rate
            weights -= grad_w
            grad_b *= self.learning_rate
            self.biases[layer] -= grad_b

    def parameter_count(self) -> int:
        """Total number of trainable parameters."""
        return int(sum(w.size for w in self.weights) + sum(b.size for b in self.biases))


@lru_cache(maxsize=256)
def _work(dims: tuple[int, ...], rows: int, step: bool) -> tuple[int, int, int]:
    """Flops, bytes and GEMMs of a forward pass over ``rows`` rows through
    layers of sizes ``dims`` and, if ``step``, its backward pass.

    Each GEMM counts ``2mkn`` flops and its three operands' bytes; each bias
    add, ReLU and ReLU mask one flop and one float64 per output, the sigmoid
    four flops per output.
    """
    flops = moved = gemms = 0
    for i, (k, n) in enumerate(zip(dims[:-1], dims[1:])):
        gemm_flops, gemm_bytes = 2 * rows * k * n, 8 * (rows * k + k * n + rows * n)
        activation = 4 if i == len(dims) - 2 else 1
        flops += gemm_flops + (1 + activation) * rows * n
        moved += gemm_bytes + 2 * 8 * rows * n
        gemms += 1
        if step:   # the weight gradient; past the first layer, the delta and its mask
            upstream = i > 0
            flops += (1 + upstream) * gemm_flops + upstream * rows * k
            moved += (1 + upstream) * gemm_bytes + upstream * 8 * rows * k
            gemms += 1 + upstream
    return flops, moved, gemms

