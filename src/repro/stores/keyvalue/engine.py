"""The key/value data-processing engine.

A small LSM-style store: writes land in a write-ahead log and a memtable;
full memtables are frozen into immutable SSTables; reads check the memtable
first and then SSTables newest-to-oldest; an explicit :meth:`compact`
size-tiers adjacent SSTables (``full=True`` merges everything into one).
The recommendation workload of the paper's Figure 1 uses it for user
profiles and external events.

When a durability manager is attached (:meth:`attach_spill`), frozen
SSTables spill to disk and flush/compact trigger checkpoints — the
previously in-memory-only SSTable path becomes the persistent level of the
store.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.exceptions import StorageError
from repro.stores.base import DataModel, Engine
from repro.stores.changelog import kv_scope
from repro.stores.keyvalue.memtable import TOMBSTONE, MemTable
from repro.stores.keyvalue.sstable import SSTable, merge_sstables


class KeyValueEngine(Engine):
    """An LSM-style key/value store with point and range reads."""

    data_model = DataModel.KEY_VALUE

    def __init__(self, name: str = "keyvalue", *, memtable_capacity: int = 1024) -> None:
        super().__init__(name)
        self._memtable = MemTable(memtable_capacity)
        self._sstables: list[SSTable] = []
        self._wal: list[tuple[str, str, Any]] = []
        #: Durability spill sink (``flushed``/``compacted``/``spill_sstable``);
        #: ``None`` keeps the engine fully in-memory.
        self._spill: Any = None

    def attach_spill(self, sink: Any) -> None:
        """Install (or with ``None`` remove) the durability spill sink."""
        self._spill = sink

    # -- writes -----------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Insert or overwrite ``key``."""
        sentinel = object()
        previous = self.get(key, sentinel)
        self._wal.append(("put", key, value))
        self._memtable.put(key, value)
        entries: list[tuple[Any, int]] = []
        if previous is not sentinel:
            entries.append(((key, previous), -1))
        entries.append(((key, value), 1))
        self.mark_data_changed(kv_scope(), entries=entries,
                               op=("put", {"key": key, "value": value}))
        if self._memtable.is_full:
            self.flush()

    def put_many(self, items: dict[str, Any]) -> None:
        """Insert or overwrite many keys."""
        for key, value in items.items():
            self.put(key, value)

    def delete(self, key: str) -> None:
        """Delete ``key`` (tombstoned until the next compaction)."""
        sentinel = object()
        previous = self.get(key, sentinel)
        self._wal.append(("delete", key, None))
        self._memtable.delete(key)
        entries = [((key, previous), -1)] if previous is not sentinel else []
        self.mark_data_changed(kv_scope(), entries=entries,
                               op=("delete", {"key": key}))
        if self._memtable.is_full:
            self.flush()

    # No changelog batch: structural reorganization; logical content unchanged.
    def flush(self) -> None:
        """Freeze the memtable into a new SSTable (spilled when durable)."""
        if len(self._memtable) == 0:
            return
        self._sstables.append(SSTable.from_memtable(self._memtable))
        self._memtable.clear()
        if self._spill is not None:
            self._spill.flushed(self)

    # No changelog batch: merges SSTables in place; logical content unchanged.
    def compact(self, *, full: bool = False) -> None:
        """Merge SSTables, discarding shadowed entries.

        The default is an incremental, size-tiered pass: the newest pair of
        adjacent SSTables merges only when the newer one has reached at
        least half the older one's size, cascading downward — a small fresh
        flush never forces a rewrite of a large old run.  Tombstones
        survive a partial merge while an older level still holds their key
        (see :func:`merge_sstables`).  ``full=True`` rewrites everything
        into a single tombstone-free SSTable.
        """
        self.flush()
        if len(self._sstables) <= 1:
            return
        if full:
            self._sstables = [merge_sstables(self._sstables)]
        else:
            i = len(self._sstables) - 1
            while i >= 1:
                older, newer = self._sstables[i - 1], self._sstables[i]
                if len(newer) * 2 >= len(older):
                    combined = merge_sstables(
                        [older, newer], older=self._sstables[:i - 1])
                    self._sstables[i - 1:i + 1] = [combined]
                i -= 1
        if self._spill is not None:
            self._spill.compacted(self)

    # -- reads -------------------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Value for ``key``, or ``default`` when missing or deleted."""
        found, value = self._memtable.get(key)
        if not found:
            for sstable in reversed(self._sstables):
                found, value = sstable.get(key)
                if found:
                    break
        if not found or value is TOMBSTONE:
            return default
        return value

    def multi_get(self, keys: list[str]) -> dict[str, Any]:
        """Values for several keys; missing keys are omitted."""
        out: dict[str, Any] = {}
        for key in keys:
            sentinel = object()
            value = self.get(key, sentinel)
            if value is not sentinel:
                out[key] = value
        return out

    def contains(self, key: str) -> bool:
        """Whether ``key`` currently has a live value."""
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def range(self, start: str | None = None, end: str | None = None) -> Iterator[tuple[str, Any]]:
        """Live entries with ``start <= key < end`` in key order."""
        merged: dict[str, Any] = {}
        for sstable in self._sstables:
            for key, value in sstable.range(start, end):
                merged[key] = value
        for key, value in self._memtable.items():
            if (start is None or key >= start) and (end is None or key < end):
                merged[key] = value
        yield from [(k, v) for k, v in sorted(merged.items()) if v is not TOMBSTONE]

    def scan(self) -> Iterator[tuple[str, Any]]:
        """Every live entry in key order."""
        yield from self.range(None, None)

    def keys(self) -> list[str]:
        """All live keys in order."""
        return [key for key, _ in self.scan()]

    # -- recovery and statistics -----------------------------------------------------

    def recover_from_wal(self) -> "KeyValueEngine":
        """Rebuild a fresh engine by replaying this engine's write-ahead log."""
        replayed = KeyValueEngine(f"{self.name}-recovered",
                                  memtable_capacity=self._memtable.capacity)
        for op, key, value in self._wal:
            if op == "put":
                replayed.put(key, value)
            elif op == "delete":
                replayed.delete(key)
            else:
                raise StorageError(f"unknown WAL record {op!r}")
        return replayed

    def statistics(self) -> dict[str, Any]:
        """Engine statistics for the catalog."""
        return {
            "memtable_entries": len(self._memtable),
            "sstables": len(self._sstables),
            "sstable_entries": sum(len(t) for t in self._sstables),
            "wal_records": len(self._wal),
            "live_keys": len(self.keys()),
        }

    def __len__(self) -> int:
        return len(self.keys())
