"""Tests for the ML engine: work counting, and models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DataModelError, StorageError
from repro.stores.ml import (
    LogisticRegression,
    MLEngine,
    MLPClassifier,
)
from repro.stores.ml.logistic import _work as _logistic_work
from repro.stores.ml.nn import _work as _mlp_work
from repro.stores.ml.tensor_ops import sigmoid


def make_blobs(n: int = 200, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + 0.5 * x[:, 1] - 0.2 * x[:, 2] > 0).astype(np.float64)
    return x, y


class TestTensorOps:
    def test_one_mlp_step_counts_what_a_hand_count_says(self):
        """Layers 4 -> 3 -> 1 over 2 rows, each GEMM ``2mkn`` flops and its
        three operands' float64s, each add/ReLU/mask one flop and one float64
        per output, the sigmoid four flops per output."""
        forward = (
            (48 + 6 + 6) + (12 + 2 + 8),               # x@W0, +b0, relu; h@W1, +b1, sigmoid
            8 * ((8 + 12 + 6) + 6 + 6 + (6 + 3 + 2) + 2 + 2),
            2,
        )
        backward = (
            12 + 12 + 6 + 48,                          # dW1, delta@W1.T, mask, dW0
            8 * ((6 + 2 + 3) + (2 + 3 + 6) + 6 + (8 + 6 + 12)),
            3,
        )
        assert forward == (82, 424, 2) and backward == (78, 432, 3)
        step = tuple(f + b for f, b in zip(forward, backward))
        assert _mlp_work((4, 3, 1), 2, False) == forward
        assert _mlp_work((4, 3, 1), 2, True) == step
        model = MLPClassifier(4, (3,))
        model.fit(np.ones((2, 4)), np.array([0.0, 1.0]), epochs=1, batch_size=2)
        counter = model.ops.counter
        # one step, then the epoch's scoring pass
        assert (counter.flops, counter.bytes_moved, counter.gemm_calls) == tuple(
            s + f for s, f in zip(step, forward))

    def test_one_logistic_step_counts_what_a_hand_count_says(self):
        """3 features over 2 rows: each GEMV ``2mk`` flops and its operands'
        float64s, the sigmoid four flops and one float64 per row."""
        forward = (12 + 8, 8 * ((6 + 3 + 2) + 2), 0)
        step = (forward[0] + 12, forward[1] + 8 * (6 + 2 + 3), 0)
        assert _logistic_work(3, 2, False) == forward
        assert _logistic_work(3, 2, True) == step
        model = LogisticRegression(3)
        model.fit(np.ones((2, 3)), np.array([0.0, 1.0]), epochs=1, batch_size=2)
        counter = model.ops.counter
        assert (counter.flops, counter.bytes_moved, counter.gemm_calls) == (52, 296, 0)

    def test_sigmoid_extremes_do_not_overflow(self):
        values = sigmoid(np.array([-1e6, 0.0, 1e6]))
        assert values[0] == pytest.approx(0.0, abs=1e-9)
        assert values[1] == pytest.approx(0.5)
        assert values[2] == pytest.approx(1.0, abs=1e-9)

    def test_counter_reset(self):
        model = MLPClassifier(4)
        model.predict(np.ones((3, 4)))
        assert model.ops.counter.flops > 0
        model.ops.counter.reset()
        assert model.ops.counter.flops == 0


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

    def test_standardize_refuses_a_width_its_statistics_do_not_have(self):
        engine = MLEngine()
        engine.fit_features("m", ["a", "b"], np.arange(8.0).reshape(4, 2))
        assert engine.standardize("m", np.ones((3, 2))).shape == (3, 2)
        with pytest.raises(DataModelError, match="fitted on 2 features, got 1"):
            engine.standardize("m", np.ones((3, 1)))

    def test_a_zero_row_fit_keeps_the_statistics_only_for_the_same_columns(self):
        engine = MLEngine()
        engine.fit_features("m", ["a", "b"], np.arange(8.0).reshape(4, 2))
        engine.fit_features("m", ["a", "b"], np.empty((0, 2)))
        assert not np.array_equal(engine.standardize("m", np.ones((1, 2))), np.ones((1, 2)))
        engine.fit_features("m", ["a"], np.empty((0, 1)))
        assert engine.feature_columns("m") == ["a"]
        assert np.array_equal(engine.standardize("m", np.ones((1, 1))), np.ones((1, 1)))

    def test_statistics_track_flops(self):
        x, y = make_blobs(80)
        engine = MLEngine()
        engine.train_logistic("lr", x, y, epochs=2)
        assert engine.statistics()["total_flops"] > 0
