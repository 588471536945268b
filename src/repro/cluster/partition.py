"""``HashPartitioner``: a partition count and the hash rule of
:mod:`repro.stores.relational.partition` (shim: PR A deletes it)."""

from __future__ import annotations

from typing import Any

from repro.exceptions import ConfigurationError
from repro.stores.relational.partition import canonical_key, partition_of

__all__ = ["HashPartitioner", "canonical_key"]


class HashPartitioner:
    """Maps shard-key values onto ``num_shards`` partitions by stable hash."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError("a partitioner needs at least one shard")
        self.num_shards = num_shards

    def shard_for(self, key: Any) -> int:
        """The partition owning ``key``."""
        return partition_of(key, self.num_shards)

    def __repr__(self) -> str:
        return f"HashPartitioner(num_shards={self.num_shards})"
