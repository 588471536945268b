"""Adapters for the ML/DL engine and the array engine.

The ML adapter closes the loop of the paper's Figure 2: the feature table
assembled by the relational/stream/text fragments arrives here, is converted
into a dense matrix, and a model is trained or scored on the ML engine (with
the GEMM work counted for accelerator offload accounting).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.datamodel.conversion import numeric_column, table_to_matrix
from repro.datamodel.schema import Column, DataType
from repro.datamodel.table import Table
from repro.exceptions import AdapterError
from repro.ir.nodes import Operator
from repro.middleware.adapters.base import Adapter
from repro.stores.array.engine import ArrayEngine
from repro.stores.ml.engine import MLEngine


def _numeric_feature_columns(table: Table, label_column: str | None,
                             key_column: str | None) -> list[str]:
    """Numeric columns usable as features, excluding the label and join key."""
    excluded = {label_column, key_column}
    names = []
    for column in table.schema:
        if column.name in excluded:
            continue
        if column.dtype in (DataType.INT, DataType.FLOAT, DataType.BOOL, DataType.TIMESTAMP):
            names.append(column.name)
    return names


class MLAdapter(Adapter):
    """Executes train/predict/feature_matrix operators on the ML engine."""

    def __init__(self, engine: MLEngine) -> None:
        super().__init__(engine)
        self.engine: MLEngine = engine

    def supported_kinds(self) -> frozenset[str]:
        return frozenset({"train", "predict", "feature_matrix"})

    def execute(self, node: Operator, inputs: list[Any]) -> Any:
        kind = node.kind
        if kind == "feature_matrix":
            self._require_inputs(node, inputs, 1)
            table = self._as_table(inputs[0], node)
            columns = node.params.get("feature_columns") or _numeric_feature_columns(
                table, node.params.get("label_column"), node.params.get("key_column"))
            return table_to_matrix(table, columns)
        if kind == "train":
            return self._train(node, inputs)
        return self._predict(node, inputs)

    # -- operators ----------------------------------------------------------------------

    def _train(self, node: Operator, inputs: list[Any]) -> dict[str, Any]:
        if not inputs:
            raise AdapterError(f"train {node.op_id} needs a feature input")
        table = self._as_table(inputs[0], node)
        label_column = node.params.get("label_column")
        if not label_column or label_column not in table.schema:
            raise AdapterError(
                f"train {node.op_id} needs a label_column present in its input"
            )
        key_column = node.params.get("key_column", "pid")
        feature_columns = node.params.get("feature_columns") or _numeric_feature_columns(
            table, label_column, key_column)
        if not feature_columns:
            raise AdapterError(f"train {node.op_id} found no numeric feature columns")
        features = table_to_matrix(table, feature_columns)
        features = np.nan_to_num(features, nan=0.0)
        labels = np.nan_to_num(numeric_column(table.column(label_column)), nan=0.0)
        model_name = str(node.params.get("model_name", node.op_id))
        features = self.engine.fit_features(model_name, feature_columns, features)
        model_type = str(node.params.get("model_type", "mlp"))
        epochs = int(node.params.get("epochs", 5))
        batch_size = int(node.params.get("batch_size", 32))
        if model_type == "logistic":
            losses = self.engine.train_logistic(model_name, features, labels,
                                                epochs=epochs, batch_size=batch_size)
            history = {"losses": losses}
        else:
            training = self.engine.train_classifier(
                model_name, features, labels,
                hidden_dims=tuple(node.params.get("hidden_dims", (32,))),
                epochs=epochs, batch_size=batch_size,
            )
            history = {"losses": training.losses, "accuracies": training.accuracies}
        metrics = self.engine.evaluate(model_name, features, labels)
        return {
            "model_name": model_name,
            "model_type": model_type,
            "feature_columns": feature_columns,
            "rows": len(table),
            "history": history,
            "metrics": metrics,
        }

    def _predict(self, node: Operator, inputs: list[Any]) -> Table:
        self._require_inputs(node, inputs, 1)
        table = self._as_table(inputs[0], node)
        model_name = str(node.params["model_name"])
        if not self.engine.has_model(model_name):
            raise AdapterError(f"predict {node.op_id}: model {model_name!r} is not trained")
        feature_columns = (node.params.get("feature_columns")
                           or self.engine.feature_columns(model_name)
                           or _numeric_feature_columns(
                               table, node.params.get("label_column"),
                               node.params.get("key_column", "pid")))
        missing = [c for c in feature_columns if c not in table.schema]
        if missing:
            raise AdapterError(f"predict {node.op_id}: input lacks the model's "
                               f"feature columns {missing}")
        features = np.nan_to_num(table_to_matrix(table, feature_columns), nan=0.0)
        features = self.engine.standardize(model_name, features)
        probabilities = self.engine.predict_proba(model_name, features)
        predictions = (probabilities >= 0.5).astype(int)
        result = table.with_column(Column("probability", DataType.FLOAT),
                                   [float(p) for p in probabilities])
        return result.with_column(Column("prediction", DataType.INT),
                                  [int(p) for p in predictions])


class ArrayAdapter(Adapter):
    """Executes matmul/gemv operators on the array engine."""

    def __init__(self, engine: ArrayEngine) -> None:
        super().__init__(engine)
        self.engine: ArrayEngine = engine

    def supported_kinds(self) -> frozenset[str]:
        return frozenset({"matmul", "gemv"})

    def execute(self, node: Operator, inputs: list[Any]) -> np.ndarray:
        self._require_inputs(node, inputs, 2)
        left, right = (np.asarray(v, dtype=np.float64) for v in inputs)
        return self.engine.matmul(left, right)
