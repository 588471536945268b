"""ML/DL engine: MLP and logistic regression that count their work."""

from repro.stores.ml.engine import MLEngine
from repro.stores.ml.logistic import LogisticRegression
from repro.stores.ml.nn import MLPClassifier, TrainingHistory
from repro.stores.ml.tensor_ops import OpCounter, TensorOps

__all__ = [
    "MLEngine",
    "MLPClassifier",
    "TrainingHistory",
    "LogisticRegression",
    "TensorOps",
    "OpCounter",
]
