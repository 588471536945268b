"""Engine adapters: translate IR operators into native engine calls."""

from repro.exceptions import AdapterError
from repro.middleware.adapters.base import Adapter
from repro.middleware.adapters.ml_adapter import ArrayAdapter, MLAdapter
from repro.middleware.adapters.nosql_adapters import (
    GraphAdapter,
    KeyValueAdapter,
    TextAdapter,
    TimeseriesAdapter,
)
from repro.middleware.adapters.relational_adapter import RelationalAdapter
from repro.stores.array.engine import ArrayEngine
from repro.stores.base import Engine
from repro.stores.graph.engine import GraphEngine
from repro.stores.keyvalue.engine import KeyValueEngine
from repro.stores.ml.engine import MLEngine
from repro.stores.relational.engine import RelationalEngine
from repro.stores.text.engine import TextEngine
from repro.stores.timeseries.engine import TimeseriesEngine


def adapter_for(engine: Engine) -> Adapter:
    """Build the adapter matching an engine's concrete type."""
    if isinstance(engine, RelationalEngine):
        return RelationalAdapter(engine)
    if isinstance(engine, KeyValueEngine):
        return KeyValueAdapter(engine)
    if isinstance(engine, TimeseriesEngine):
        return TimeseriesAdapter(engine)
    if isinstance(engine, GraphEngine):
        return GraphAdapter(engine)
    if isinstance(engine, TextEngine):
        return TextAdapter(engine)
    if isinstance(engine, MLEngine):
        return MLAdapter(engine)
    if isinstance(engine, ArrayEngine):
        return ArrayAdapter(engine)
    raise AdapterError(f"no adapter available for engine type {type(engine).__name__}")


__all__ = [
    "Adapter",
    "RelationalAdapter",
    "KeyValueAdapter",
    "TimeseriesAdapter",
    "GraphAdapter",
    "TextAdapter",
    "MLAdapter",
    "ArrayAdapter",
    "adapter_for",
]
