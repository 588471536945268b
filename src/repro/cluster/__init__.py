"""Compatibility names for partitioned tables (shim: PR A deletes it).

A partitioned table lives in one :class:`~repro.stores.RelationalEngine`
(``RelationalEngine(name, partitions=n)``; ``create_table(...,
shard_key=...)``).  What is left here is :class:`HashPartitioner`, which
``PolystorePlusPlus.register_sharded_engine`` still accepts and snapshots an
older release wrote still unpickle, and ``canonical_key``.
"""

from repro.cluster.partition import HashPartitioner, canonical_key

__all__ = ["HashPartitioner", "canonical_key"]
