"""Partitioners: deciding which shard owns a key.

A :class:`Partitioner` maps a shard-key value to a shard index.  Two
concrete strategies are provided:

* :class:`HashPartitioner` — stable CRC32 hashing of the key's canonical
  string form.  Deterministic across processes and Python runs (unlike the
  builtin ``hash``, which is salted), so shard placement survives restarts
  and is reproducible in tests.
* :class:`RangePartitioner` — ordered split points; shard ``i`` owns keys in
  ``[boundaries[i-1], boundaries[i])``.  Preserves key locality, which keeps
  range scans shard-local, at the price of needing balanced boundaries.

Partitioners are immutable: a sharded engine keeps the one it was built
with, or the one its durable data directory recorded.
"""

from __future__ import annotations

import abc
import bisect
import zlib
from typing import Any, Sequence

from repro.exceptions import ConfigurationError


def canonical_key(key: Any) -> str:
    """A deterministic string form of a shard-key value.

    Integers and their float equivalents collapse to the same form so a key
    read back as ``2.0`` routes like the ``2`` it was written as.
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


class Partitioner(abc.ABC):
    """Maps shard-key values onto ``num_shards`` shard indexes."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError("a partitioner needs at least one shard")
        self.num_shards = num_shards

    @abc.abstractmethod
    def shard_for(self, key: Any) -> int:
        """The index of the shard owning ``key`` (in ``[0, num_shards)``)."""

    def shards_for(self, keys: Sequence[Any]) -> dict[int, list[Any]]:
        """Group ``keys`` by owning shard index (empty shards omitted)."""
        grouped: dict[int, list[Any]] = {}
        for key in keys:
            grouped.setdefault(self.shard_for(key), []).append(key)
        return grouped

    def describe(self) -> dict[str, Any]:
        """Metadata for catalogs and ``ShardedEngine.describe``."""
        return {"strategy": type(self).__name__, "num_shards": self.num_shards}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_shards={self.num_shards})"


class HashPartitioner(Partitioner):
    """Stable-hash partitioning over the key's canonical string form."""

    def shard_for(self, key: Any) -> int:
        digest = zlib.crc32(canonical_key(key).encode("utf-8"))
        return digest % self.num_shards


class RangePartitioner(Partitioner):
    """Ordered partitioning: shard ``i`` owns ``[boundaries[i-1], boundaries[i])``.

    ``boundaries`` must be strictly increasing; ``len(boundaries) + 1`` shards
    result.  Keys below the first boundary go to shard 0, keys at or above
    the last go to the final shard.
    """

    def __init__(self, boundaries: Sequence[Any]) -> None:
        bounds = list(boundaries)
        if not bounds:
            raise ConfigurationError("RangePartitioner needs at least one boundary")
        if any(not (bounds[i] < bounds[i + 1]) for i in range(len(bounds) - 1)):
            raise ConfigurationError("range boundaries must be strictly increasing")
        super().__init__(len(bounds) + 1)
        self.boundaries = bounds

    def shard_for(self, key: Any) -> int:
        try:
            return bisect.bisect_right(self.boundaries, key)
        except TypeError as exc:
            raise ConfigurationError(
                f"shard key {key!r} is not comparable with the declared "
                f"range boundaries"
            ) from exc

    def describe(self) -> dict[str, Any]:
        description = super().describe()
        description["boundaries"] = list(self.boundaries)
        return description

    def __repr__(self) -> str:
        return f"RangePartitioner(boundaries={self.boundaries!r})"
