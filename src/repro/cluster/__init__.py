"""Sharding fabric: partitioned engines, scatter-gather execution, rebalancing.

This package adds the data-parallel axis to the polystore: any substrate
engine can be wrapped in a :class:`ShardedEngine` (N shard instances behind a
hash or range :class:`Partitioner`), registered in the system like any other
engine, scatter-gathered by the executor, and repartitioned online by the
:class:`ShardRebalancer` without taking reads offline.
"""

from repro.cluster.partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    canonical_key,
)
from repro.cluster.rebalance import RebalanceReport, ShardRebalancer
from repro.cluster.scatter import ScatterExecution, ScatterGather, ShardedValue, gather
from repro.cluster.sharded import PARTITIONABLE_MODELS, ShardedEngine, ShardPayload
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
    "ShardPayload",
    "PARTITIONABLE_MODELS",
    "ShardedAdapter",
    "ShardedValue",
    "ScatterGather",
    "ScatterExecution",
    "gather",
    "decompose_aggregates",
    "combine_partial_aggregates",
    "ShardRebalancer",
    "RebalanceReport",
]
