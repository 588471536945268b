"""Tests for the ML engine: tensor ops, and models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DataModelError, StorageError
from repro.stores.ml import (
    LogisticRegression,
    MLEngine,
    MLPClassifier,
    TensorOps,
)


def make_blobs(n: int = 200, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + 0.5 * x[:, 1] - 0.2 * x[:, 2] > 0).astype(np.float64)
    return x, y


class TestTensorOps:
    def test_gemm_counts_flops(self):
        ops = TensorOps()
        ops.gemm(np.ones((4, 5)), np.ones((5, 6)))
        assert ops.counter.flops == 2 * 4 * 5 * 6
        assert ops.counter.gemm_calls == 1

    def test_gemv_and_shapes(self):
        ops = TensorOps()
        result = ops.gemv(np.ones((3, 2)), np.array([1.0, 2.0]))
        assert np.allclose(result, 3.0)
        with pytest.raises(DataModelError):
            ops.gemv(np.ones((3, 2)), np.ones(5))

    def test_gemm_shape_mismatch(self):
        with pytest.raises(DataModelError):
            TensorOps().gemm(np.ones((2, 3)), np.ones((2, 3)))

    def test_sigmoid_extremes_do_not_overflow(self):
        values = TensorOps().sigmoid(np.array([-1e6, 0.0, 1e6]))
        assert values[0] == pytest.approx(0.0, abs=1e-9)
        assert values[1] == pytest.approx(0.5)
        assert values[2] == pytest.approx(1.0, abs=1e-9)

    def test_softmax_rows_sum_to_one(self):
        result = TensorOps().softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        assert np.allclose(result.sum(axis=1), 1.0)

    def test_counter_reset(self):
        ops = TensorOps()
        ops.relu(np.ones(4))
        ops.counter.reset()
        assert ops.counter.flops == 0


class TestModels:
    def test_mlp_learns_linear_boundary(self):
        x, y = make_blobs()
        model = MLPClassifier(4, (16,), learning_rate=0.1, seed=1)
        history = model.fit(x, y, epochs=20, batch_size=32, seed=1)
        assert history.final_accuracy > 0.85
        assert history.losses[-1] < history.losses[0]

    def test_mlp_input_dim_checked(self):
        model = MLPClassifier(4)
        with pytest.raises(DataModelError):
            model.predict(np.ones((3, 5)))

    def test_mlp_parameter_count(self):
        model = MLPClassifier(4, (8, 4))
        assert model.parameter_count() == (4 * 8 + 8) + (8 * 4 + 4) + (4 * 1 + 1)

    def test_logistic_learns(self):
        x, y = make_blobs(seed=2)
        model = LogisticRegression(4, learning_rate=0.5)
        losses = model.fit(x, y, epochs=15, batch_size=32)
        predictions = model.predict(x)
        assert float(np.mean(predictions == y)) > 0.85
        assert losses[-1] < losses[0]

    def test_invalid_hyperparameters(self):
        x, y = make_blobs(50)
        with pytest.raises(DataModelError):
            MLPClassifier(4).fit(x, y, epochs=0)
        with pytest.raises(DataModelError):
            MLPClassifier(0)


class TestEngine:
    def test_train_evaluate_predict(self):
        x, y = make_blobs()
        engine = MLEngine()
        engine.train_classifier("clf", x, y, epochs=12, hidden_dims=(16,))
        metrics = engine.evaluate("clf", x, y)
        assert metrics["accuracy"] > 0.8
        assert engine.predict("clf", x[:5]).shape == (5,)
        assert "clf" in engine.list_models()
        assert engine.model_info("clf")["parameters"] > 0

    def test_missing_model_raises(self):
        with pytest.raises(StorageError):
            MLEngine().predict("ghost", np.ones((1, 2)))

    def test_statistics_track_flops(self):
        x, y = make_blobs(80)
        engine = MLEngine()
        engine.train_logistic("lr", x, y, epochs=2)
        assert engine.statistics()["total_flops"] > 0
