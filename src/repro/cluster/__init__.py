"""Sharding fabric: partitioned engines and scatter-gather execution.

This package adds the data-parallel axis to the polystore: any substrate
engine can be wrapped in a :class:`ShardedEngine` (N shard instances behind a
hash or range :class:`Partitioner`), registered in the system like any other
engine, and scatter-gathered by the executor.
"""

# The executor imports scatter, and scatter the middleware's adapters: load
# the middleware (executor and all) first, or whichever of the two a caller
# imports first would find the other half-initialised.
import repro.middleware  # noqa: F401
from repro.cluster.partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    canonical_key,
)
from repro.cluster.scatter import ScatterExecution, ScatterGather, ShardedValue, gather
from repro.cluster.sharded import PARTITIONABLE_MODELS, ShardedEngine
from repro.cluster.adapter import ShardedAdapter
from repro.stores.relational.operators import (
    combine_partial_aggregates,
    decompose_aggregates,
)

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "canonical_key",
    "ShardedEngine",
    "PARTITIONABLE_MODELS",
    "ShardedAdapter",
    "ShardedValue",
    "ScatterGather",
    "ScatterExecution",
    "gather",
    "decompose_aggregates",
    "combine_partial_aggregates",
]
