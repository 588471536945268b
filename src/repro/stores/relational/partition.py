"""The partition rule of a partitioned table.

A table created with a shard key splits its rows into the engine's
``partitions`` by a stable hash of the key: CRC32 of the key's canonical
string form, so a row's partition is the same in every process and run
(the builtin ``hash`` is salted).  Partitions are not separate stores: a
sealed page carries the set of partitions its key cells fall in
(:meth:`~repro.stores.relational.storage.Page.partitions`), beside its
bounds, and a read whose predicate names the key skips the other pages.
"""

from __future__ import annotations

import zlib
from typing import Any


def canonical_key(key: Any) -> str:
    """A deterministic string form of a shard-key value.

    Integers and their float equivalents collapse to the same form so a key
    read back as ``2.0`` lands like the ``2`` it was written as.
    """
    if isinstance(key, bool):
        return f"b:{key}"
    if isinstance(key, float) and key.is_integer():
        return f"i:{int(key)}"
    if isinstance(key, int):
        return f"i:{key}"
    if isinstance(key, str):
        return f"s:{key}"
    return f"{type(key).__name__}:{key!r}"


def partition_of(key: Any, partitions: int) -> int:
    """The partition, in ``[0, partitions)``, that owns ``key``."""
    return zlib.crc32(canonical_key(key).encode("utf-8")) % partitions


def partitions_equal_to(value: Any, partitions: int) -> set[int]:
    """The partitions a key ``== value`` may be in: a ``bool`` keys apart from
    the ``0`` or ``1`` it equals, so both are named."""
    if isinstance(value, (bool, int, float)) and value in (0, 1):
        return {partition_of(bool(value), partitions), partition_of(int(value), partitions)}
    return {partition_of(value, partitions)}
