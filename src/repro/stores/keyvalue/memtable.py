"""In-memory write buffer for the key/value engine.

The memtable absorbs writes until it reaches a size threshold, at which
point the engine flushes it into an immutable :class:`~repro.stores.keyvalue.sstable.SSTable`.
Deletions are recorded as tombstones so that a later flush can shadow older
SSTable entries, as in any LSM-style store.
"""

from __future__ import annotations

from typing import Any, Iterator

#: Sentinel stored for deleted keys.
TOMBSTONE = object()


class MemTable:
    """A sorted-on-demand in-memory map of key to value (or tombstone)."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: dict[str, Any] = {}

    def put(self, key: str, value: Any) -> None:
        """Insert or overwrite ``key``."""
        self._entries[key] = value

    def delete(self, key: str) -> None:
        """Record a tombstone for ``key``."""
        self._entries[key] = TOMBSTONE

    def get(self, key: str) -> tuple[bool, Any]:
        """Return ``(found, value)``; ``value`` may be the tombstone sentinel."""
        if key in self._entries:
            return True, self._entries[key]
        return False, None

    def items(self) -> Iterator[tuple[str, Any]]:
        """All entries sorted by key (tombstones included)."""
        for key in sorted(self._entries):
            yield key, self._entries[key]

    @property
    def is_full(self) -> bool:
        """Whether the memtable has reached its flush threshold."""
        return len(self._entries) >= self.capacity

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (after a flush)."""
        self._entries.clear()
