"""The ML/DL data-processing engine.

Trains and serves models (MLP, logistic regression) on feature
matrices, typically produced by joining data from the other stores.  Every
model adds its work to the engine's one counter, ``ops.counter``; the
executor charges an offloaded ``train`` or ``predict`` what it added.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.datamodel.conversion import table_to_matrix
from repro.datamodel.table import Table
from repro.exceptions import DataModelError, StorageError
from repro.stores.base import DataModel, Engine
from repro.stores.ml.logistic import LogisticRegression
from repro.stores.ml.nn import MLPClassifier, TrainingHistory
from repro.stores.ml.tensor_ops import TensorOps


class MLEngine(Engine):
    """Model training and inference engine whose models count their work."""

    data_model = DataModel.TENSOR

    def __init__(self, name: str = "ml") -> None:
        super().__init__(name)
        self.ops = TensorOps()
        self._models: dict[str, Any] = {}
        #: Per model, the feature columns it was trained on and their z-score
        #: statistics: a run that scores the model reads them from here, so
        #: it need not be the run that trained it.
        self._feature_columns: dict[str, list[str]] = {}
        self._normalization: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- features -----------------------------------------------------------------

    def fit_features(self, model_name: str, columns: Sequence[str],
                     features: np.ndarray) -> np.ndarray:
        """Record ``model_name``'s feature columns and fit its z-score
        statistics to ``features``; returns ``features`` standardized.

        Zero rows have no statistics to fit: the model's previous ones stay
        if it keeps its columns, and are dropped if they change.
        """
        columns = list(columns)
        if len(features):
            mean = features.mean(axis=0)
            std = features.std(axis=0)
            std[std == 0] = 1.0
            self._normalization[model_name] = (mean, std)
        elif self._feature_columns.get(model_name) != columns:
            self._normalization.pop(model_name, None)
        self._feature_columns[model_name] = columns
        self.mark_data_changed()
        return self.standardize(model_name, features)

    def feature_columns(self, model_name: str) -> list[str] | None:
        """The columns ``model_name`` was trained on, if it was fitted here."""
        return self._feature_columns.get(model_name)

    def standardize(self, model_name: str, features: np.ndarray) -> np.ndarray:
        """``features`` z-scored with ``model_name``'s training statistics."""
        stats = self._normalization.get(model_name)
        if stats is None:
            return features
        mean, std = stats
        if np.shape(features)[-1] != len(mean):
            raise DataModelError(f"model {model_name!r} was fitted on {len(mean)} "
                                 f"features, got {np.shape(features)[-1]}")
        return (features - mean) / std

    # -- training -----------------------------------------------------------------

    def train_classifier(self, model_name: str, features: np.ndarray | Table,
                         labels: np.ndarray, *, hidden_dims: tuple[int, ...] = (32,),
                         epochs: int = 5, batch_size: int = 32,
                         learning_rate: float = 0.05, seed: int = 0
                         ) -> TrainingHistory:
        """Train an MLP classifier and register it under ``model_name``."""
        x = self._as_matrix(features)
        model = MLPClassifier(x.shape[1], hidden_dims, learning_rate=learning_rate,
                              seed=seed, ops=self.ops)
        history = model.fit(x, labels, epochs=epochs, batch_size=batch_size, seed=seed)
        self._models[model_name] = model
        self.mark_data_changed()
        return history

    def train_logistic(self, model_name: str, features: np.ndarray | Table,
                       labels: np.ndarray, *, epochs: int = 10, batch_size: int = 64,
                       learning_rate: float = 0.1, seed: int = 0) -> list[float]:
        """Train a logistic-regression model and register it."""
        x = self._as_matrix(features)
        model = LogisticRegression(x.shape[1], learning_rate=learning_rate, ops=self.ops)
        losses = model.fit(x, labels, epochs=epochs, batch_size=batch_size, seed=seed)
        self._models[model_name] = model
        self.mark_data_changed()
        return losses

    # -- inference ---------------------------------------------------------------------

    def predict(self, model_name: str, features: np.ndarray | Table) -> np.ndarray:
        """Hard predictions from a registered model."""
        model = self._model(model_name)
        return model.predict(self._as_matrix(features))

    def predict_proba(self, model_name: str, features: np.ndarray | Table) -> np.ndarray:
        """Probability predictions from a registered model."""
        model = self._model(model_name)
        x = self._as_matrix(features)
        return model.predict_proba(x)

    def evaluate(self, model_name: str, features: np.ndarray | Table,
                 labels: np.ndarray) -> dict[str, float]:
        """Accuracy / precision / recall of a registered model on a labelled set."""
        predictions = self.predict(model_name, features)
        y = np.asarray(labels).reshape(-1).astype(np.int64)
        true_positive = int(np.sum((predictions == 1) & (y == 1)))
        false_positive = int(np.sum((predictions == 1) & (y == 0)))
        false_negative = int(np.sum((predictions == 0) & (y == 1)))
        accuracy = float(np.mean(predictions == y)) if len(y) else 0.0
        precision = true_positive / (true_positive + false_positive) \
            if (true_positive + false_positive) else 0.0
        recall = true_positive / (true_positive + false_negative) \
            if (true_positive + false_negative) else 0.0
        return {"accuracy": accuracy, "precision": precision, "recall": recall}

    # -- model registry -------------------------------------------------------------------

    def has_model(self, model_name: str) -> bool:
        """Whether a model is registered."""
        return model_name in self._models

    def list_models(self) -> list[str]:
        """Names of registered models."""
        return sorted(self._models)

    def model_info(self, model_name: str) -> dict[str, Any]:
        """Metadata about a registered model."""
        model = self._model(model_name)
        info: dict[str, Any] = {"type": type(model).__name__}
        if isinstance(model, MLPClassifier):
            info["parameters"] = model.parameter_count()
            info["hidden_dims"] = list(model.hidden_dims)
        elif isinstance(model, LogisticRegression):
            info["parameters"] = int(model.weights.size + 1)
        return info

    def statistics(self) -> dict[str, Any]:
        """Engine statistics for the catalog."""
        return {
            "models": len(self._models),
            "total_flops": self.ops.counter.flops,
            "gemm_calls": self.ops.counter.gemm_calls,
        }

    # -- helpers -----------------------------------------------------------------------------

    def _model(self, model_name: str) -> Any:
        try:
            return self._models[model_name]
        except KeyError as exc:
            raise StorageError(f"model {model_name!r} is not registered") from exc

    @staticmethod
    def _as_matrix(features: np.ndarray | Table) -> np.ndarray:
        if isinstance(features, Table):
            return table_to_matrix(features)
        x = np.asarray(features, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        return x
