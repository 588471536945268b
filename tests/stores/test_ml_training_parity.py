"""The models' plain-numpy training equals the per-op training it replaced.

``_ParentOps``, ``_ParentMLP`` and ``_ParentLogistic`` are the training code
of commit e046d2c (``stores/ml/tensor_ops.py``, ``nn.py`` and
``logistic.py``), trimmed to what ``fit`` and ``predict_proba`` run: every
GEMM, GEMV, bias add and activation went through a wrapper that converted,
checked and counted its operands.  Both sides run on this machine with this
numpy, so the comparisons are ``==`` on floats and on the
``(flops, bytes_moved, gemm_calls)`` counter, never on stored float values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.stores.ml import LogisticRegression, MLPClassifier, OpCounter
from repro.stores.ml.tensor_ops import sigmoid

ROWS = [0, 1, 31, 32, 33, 2000]
BATCHES = [1, 32, 4096]   # 4096: one batch larger than every row count
FEATURES = 5


class _ParentOps:
    def __init__(self) -> None:
        self.counter = OpCounter()

    def gemm(self, a, b):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        result = a @ b
        self.counter.gemm_calls += 1
        self.counter.add(2 * a.shape[0] * a.shape[1] * b.shape[1],
                         a.nbytes + b.nbytes + result.nbytes)
        return result

    def gemv(self, a, x):
        a = np.asarray(a, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        result = a @ x
        self.counter.add(2 * a.shape[0] * a.shape[1], a.nbytes + x.nbytes + result.nbytes)
        return result

    def add(self, a, b):
        result = np.asarray(a) + np.asarray(b)
        self.counter.add(int(result.size), result.nbytes)
        return result

    def relu(self, a):
        result = np.maximum(np.asarray(a), 0.0)
        self.counter.add(int(result.size), result.nbytes)
        return result

    def relu_grad(self, a):
        result = (np.asarray(a) > 0.0).astype(np.float64)
        self.counter.add(int(result.size), result.nbytes)
        return result

    def sigmoid(self, a):
        a = np.clip(np.asarray(a, dtype=np.float64), -60.0, 60.0)
        result = np.where(a >= 0, 1.0 / (1.0 + np.exp(-a)), np.exp(a) / (1.0 + np.exp(a)))
        self.counter.add(4 * int(result.size), result.nbytes)
        return result


class _ParentMLP:
    def __init__(self, input_dim, hidden_dims, *, learning_rate=0.05, seed=0):
        self.learning_rate = learning_rate
        self.ops = _ParentOps()
        rng = np.random.default_rng(seed)
        dims = [input_dim, *hidden_dims, 1]
        self.weights, self.biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    def _forward(self, x):
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

    def predict_proba(self, x):
        x = np.asarray(x, dtype=np.float64)
        _, activations = self._forward(x)
        return activations[-1].reshape(-1)

    def fit(self, x, y, *, epochs, batch_size, shuffle, seed=0):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        rng = np.random.default_rng(seed)
        losses, accuracies = [], []
        n = x.shape[0]
        if n == 0:
            return losses, accuracies
        for _ in range(epochs):
            order = rng.permutation(n) if shuffle else np.arange(n)
            for start in range(0, n, batch_size):
                batch_idx = order[start:start + batch_size]
                self._step(x[batch_idx], y[batch_idx])
            probabilities = self.predict_proba(x)
            losses.append(_cross_entropy(y, probabilities))
            accuracies.append(float(np.mean((probabilities >= 0.5) == (y >= 0.5))))
        return losses, accuracies

    def _step(self, x_batch, y_batch):
        batch = x_batch.shape[0]
        pre_activations, activations = self._forward(x_batch)
        output = activations[-1].reshape(-1)
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


class _ParentLogistic:
    def __init__(self, input_dim, *, learning_rate=0.1, l2=0.0):
        self.learning_rate = learning_rate
        self.l2 = l2
        self.ops = _ParentOps()
        self.weights = np.zeros(input_dim, dtype=np.float64)
        self.bias = 0.0

    def predict_proba(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self.ops.sigmoid(self.ops.gemv(x, self.weights) + self.bias)

    def fit(self, x, y, *, epochs, batch_size, seed=0):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        rng = np.random.default_rng(seed)
        losses = []
        n = x.shape[0]
        if n == 0:
            return losses
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                self._step(x[idx], y[idx])
            losses.append(_cross_entropy(y, self.predict_proba(x)))
        return losses

    def _step(self, x_batch, y_batch):
        batch = x_batch.shape[0]
        probabilities = self.ops.sigmoid(self.ops.gemv(x_batch, self.weights) + self.bias)
        error = probabilities - y_batch
        grad_w = self.ops.gemv(x_batch.T, error) / batch + self.l2 * self.weights
        grad_b = float(error.mean())
        self.weights -= self.learning_rate * grad_w
        self.bias -= self.learning_rate * grad_b


def _cross_entropy(y, p):
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _data(n: int, order: str):
    """``n`` labelled rows; ``order="F"`` is the layout ``table_to_matrix``
    hands the engine."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, FEATURES))
    y = (x[:, 0] - 0.7 * x[:, 1] + rng.normal(0.0, 0.5, size=n) > 0).astype(np.float64)
    return np.asarray(x, order=order), y, rng.normal(size=(17, FEATURES))


def _triple(counter: OpCounter) -> tuple[int, int, int]:
    return counter.flops, counter.bytes_moved, counter.gemm_calls


@pytest.mark.parametrize("shuffle", [True, False])
@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("batch_size", BATCHES)
@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("hidden", [(), (32,), (32, 16)], ids=str)
def test_the_mlp_trains_as_the_per_op_mlp_did(hidden, n, batch_size, epochs, shuffle):
    x, y, unseen = _data(n, "F" if shuffle else "C")   # both layouts, half the runs each
    model = MLPClassifier(FEATURES, hidden, seed=3)
    parent = _ParentMLP(FEATURES, hidden, seed=3)
    history = model.fit(x, y, epochs=epochs, batch_size=batch_size, shuffle=shuffle, seed=5)
    assert (history.losses, history.accuracies) == parent.fit(
        x, y, epochs=epochs, batch_size=batch_size, shuffle=shuffle, seed=5)
    assert _triple(model.ops.counter) == _triple(parent.ops.counter)
    for mine, theirs in zip(model.weights + model.biases, parent.weights + parent.biases):
        assert np.array_equal(mine, theirs)
    for rows in (unseen, x):
        assert np.array_equal(model.predict_proba(rows), parent.predict_proba(rows))
        assert _triple(model.ops.counter) == _triple(parent.ops.counter)


@pytest.mark.parametrize("l2", [0.0, 0.01])
@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("batch_size", BATCHES)
@pytest.mark.parametrize("n", ROWS)
def test_the_logistic_model_trains_as_the_per_op_one_did(n, batch_size, epochs, l2):
    x, y, unseen = _data(n, "F" if l2 else "C")   # both layouts, half the runs each
    model = LogisticRegression(FEATURES, l2=l2)
    parent = _ParentLogistic(FEATURES, l2=l2)
    losses = model.fit(x, y, epochs=epochs, batch_size=batch_size, seed=5)
    assert losses == parent.fit(x, y, epochs=epochs, batch_size=batch_size, seed=5)
    assert _triple(model.ops.counter) == _triple(parent.ops.counter)
    assert np.array_equal(model.weights, parent.weights) and model.bias == parent.bias
    for rows in (unseen, x):
        assert np.array_equal(model.predict_proba(rows), parent.predict_proba(rows))
        assert _triple(model.ops.counter) == _triple(parent.ops.counter)


def test_the_sigmoid_is_the_two_branch_sigmoid():
    a = np.concatenate([np.linspace(-70.0, 70.0, 2801), [-0.0, 0.0, 1e-300, -1e-300]])
    clipped = np.clip(a, -60.0, 60.0)
    two_branch = np.where(clipped >= 0, 1.0 / (1.0 + np.exp(-clipped)),
                          np.exp(clipped) / (1.0 + np.exp(clipped)))
    assert np.array_equal(sigmoid(a), two_branch)
