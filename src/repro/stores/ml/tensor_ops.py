"""What the ML engine's two models share: the work counter, the sigmoid and
the mini-batch SGD loop.

The paper notes that deep-learning workloads lower to GEMV/GEMM operations
(§III-A-1).  The models run their math in plain numpy; each call then adds
to one :class:`OpCounter` the flops, bytes and GEMMs a closed form over its
shapes gives, which the executor charges an offloaded ``train`` or
``predict`` for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataModelError


@dataclass
class OpCounter:
    """Floating-point operation and byte counters, cumulative since the last
    :meth:`reset`."""

    flops: int = 0
    bytes_moved: int = 0
    gemm_calls: int = 0

    def add(self, flops: int, bytes_moved: int, gemm_calls: int = 0) -> None:
        """Record one call's work."""
        self.flops += flops
        self.bytes_moved += bytes_moved
        self.gemm_calls += gemm_calls

    def reset(self) -> None:
        """Zero every counter."""
        self.flops = 0
        self.bytes_moved = 0
        self.gemm_calls = 0


class TensorOps:
    """The :class:`OpCounter` an engine and the models it trains share."""

    def __init__(self) -> None:
        self.counter = OpCounter()


def sigmoid(a: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid (inputs clipped to ±60).

    One ``exp(-|a|)`` serves both branches: for ``a < 0`` it is ``exp(a)``.
    """
    a = np.clip(np.asarray(a, dtype=np.float64), -60.0, 60.0)
    e = np.exp(-np.abs(a))
    denominator = 1.0 + e
    return np.where(a >= 0, 1.0 / denominator, e / denominator)


class SGDModel:
    """What both models share: mini-batch SGD, scoring, and adding each
    call's work to ``ops.counter`` once.

    A subclass sets ``input_dim`` and ``ops`` and defines ``_proba(x)``,
    ``_step(x_batch, y_batch)`` and ``_work(rows, step)``: the flops, bytes
    and GEMMs of one call over ``rows`` rows, a training step if ``step``,
    else a forward pass.
    """

    input_dim: int
    ops: TensorOps

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each row of ``x``."""
        x = self._features(x)
        probabilities = self._proba(x)
        self.ops.counter.add(*self._work(x.shape[0], False))
        return probabilities

    def predict(self, x: np.ndarray, *, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions."""
        return (self.predict_proba(x) >= threshold).astype(np.int64)

    def _sgd(self, x: np.ndarray, y: np.ndarray, epochs: int, batch_size: int,
             seed: int, shuffle: bool = True) -> tuple[np.ndarray, list[np.ndarray]]:
        """Train on ``x``, ``y``; returns the labels as floats and every row's
        probabilities after each epoch (none for no rows)."""
        x = self._features(x)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if len(y) != x.shape[0]:
            raise DataModelError("x and y have different numbers of rows")
        if epochs <= 0 or batch_size <= 0:
            raise DataModelError("epochs and batch_size must be positive")
        rng = np.random.default_rng(seed)
        n = len(y)
        scored = []
        for _ in range(epochs if n else 0):
            order = rng.permutation(n) if shuffle else np.arange(n)
            xs, ys = x[order], y[order]
            for start in range(0, n, batch_size):
                self._step(xs[start:start + batch_size], ys[start:start + batch_size])
            scored.append(self._proba(x))
        # Per epoch: the full batches, the short last one, then every row scored.
        full, rest = divmod(n, batch_size)
        totals = [0, 0, 0]
        for times, rows, step in ((full, batch_size, True), (rest > 0, rest, True),
                                  (n > 0, n, False)):
            for i, value in enumerate(self._work(rows, step) if times else ()):
                totals[i] += epochs * times * value
        self.ops.counter.add(*totals)
        return y, scored

    def _features(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.input_dim:
            raise DataModelError(f"model expects {self.input_dim} features, got {x.shape[1]}")
        return x


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    """Mean binary cross-entropy of probabilities ``p`` against labels ``y``."""
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
