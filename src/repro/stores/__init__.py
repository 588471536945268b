"""Substrate data-processing engines federated by the polystore."""

from repro.stores.array import ArrayEngine
from repro.stores.base import DataModel, Engine
from repro.stores.graph import GraphEngine
from repro.stores.keyvalue import KeyValueEngine
from repro.stores.ml import MLEngine
from repro.stores.relational import RelationalEngine
from repro.stores.text import TextEngine
from repro.stores.timeseries import TimeseriesEngine

__all__ = [
    "Engine",
    "DataModel",
    "RelationalEngine",
    "KeyValueEngine",
    "TimeseriesEngine",
    "GraphEngine",
    "ArrayEngine",
    "TextEngine",
    "MLEngine",
]
