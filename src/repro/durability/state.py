"""Per-engine state capture, restore and WAL replay.

The durability manager is engine-agnostic; this module holds the per-model
knowledge: how to dump an engine's state into a picklable payload, how to
rebuild the engine from it, and how to re-apply one WAL record.

Replay goes back through the engines' own mutators wherever possible (the
``op`` payload each mutator attaches to its changelog batch names the call
to repeat).  Re-running the mutator regenerates the *same* changelog batch,
the same version-counter bumps and the same heap/memtable layout the live
process produced — which is what makes the recovered scoped data versions
byte-compatible with a never-crashed twin.  The two relational mutators that
take a predicate (``delete_rows`` / ``update_rows``) log the rows they
matched, not the predicate: replay runs the engine's own page-level rewrite
with a matcher that finds those rows by value, in scan order, so live and
replayed tables share one rewrite and one resulting scan order.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import TYPE_CHECKING, Any

from repro.datamodel.schema import Column, DataType, Schema
from repro.exceptions import StorageError
from repro.stores.base import Engine
from repro.stores.changelog import table_scope
from repro.stores.keyvalue.engine import KeyValueEngine
from repro.stores.keyvalue.memtable import TOMBSTONE, MemTable
from repro.stores.keyvalue.sstable import SSTable
from repro.stores.relational.engine import RelationalEngine, StoredTable
from repro.stores.relational.index import HashIndex, SortedIndex
from repro.stores.relational.storage import HeapStorage, Page
from repro.stores.text.engine import TextEngine
from repro.stores.timeseries.engine import TimeseriesEngine
from repro.stores.timeseries.series import Series

if TYPE_CHECKING:  # circular with manager (it passes itself as the spill sink)
    from repro.durability.manager import EngineStore

#: Engine classes the durability subsystem can persist (graph/array/ML
#: engines log only unscoped gap batches and have no dump path yet).
PERSISTABLE_ENGINES = (RelationalEngine, KeyValueEngine, TimeseriesEngine,
                       TextEngine)

#: Marker standing in for the (unpicklable, identity-compared) tombstone
#: sentinel inside persisted key/value payloads.
TOMBSTONE_MARKER = ("__repro.kv.tombstone__",)


def _encode_value(value: Any) -> Any:
    return TOMBSTONE_MARKER if value is TOMBSTONE else value


def _decode_value(value: Any) -> Any:
    return TOMBSTONE if value == TOMBSTONE_MARKER else value


def encode_entries(entries: Any) -> list[tuple[str, Any]]:
    """Tombstone-safe ``(key, value)`` list for memtables and SSTables."""
    return [(key, _encode_value(value)) for key, value in entries]


def decode_entries(entries: Any) -> list[tuple[str, Any]]:
    """Inverse of :func:`encode_entries`."""
    return [(key, _decode_value(value)) for key, value in entries]


# -- counters ------------------------------------------------------------------------


def dump_counters(engine: Engine) -> dict[str, Any]:
    """The engine's version counters and changelog position."""
    return {
        "data_version": engine._data_version,
        "unscoped": engine._unscoped_version,
        "scopes": dict(engine._scope_versions),
        "next_seq": engine.changelog._next_seq,
    }


def restore_counters(engine: Engine, counters: dict[str, Any]) -> None:
    """Reset the engine's counters to a snapshot's values.

    The in-memory changelog restarts empty at the snapshot's sequence
    number: retention is bounded anyway, replayed WAL records re-append the
    tail batches, and consumers (views) resync from the base data.
    """
    engine._data_version = counters["data_version"]
    engine._unscoped_version = counters["unscoped"]
    engine._scope_versions = dict(counters["scopes"])
    log = engine.changelog
    with log._lock:
        log._batches.clear()
        log._retained_rows = 0
        log._next_seq = counters["next_seq"]
        log._oldest_retained = counters["next_seq"]


# -- state dump / restore ------------------------------------------------------------


def dump_state(engine: Engine, store: "EngineStore | None" = None) -> dict[str, Any]:
    """Picklable full state of one engine (dispatch on engine type)."""
    if isinstance(engine, RelationalEngine):
        tables = {}
        for name, stored in engine._tables.items():
            tables[name] = {
                "schema": [(c.name, c.dtype.value, c.nullable) for c in stored.schema],
                "page_capacity": stored.heap.page_capacity,
                # Sliced once: every page but the last is sealed, never to change.
                "pages": stored.heap._pages[:],
                "hash_indexes": sorted(stored.hash_indexes),
                "sorted_indexes": sorted(stored.sorted_indexes),
                "shard_key": stored.shard_key,
            }
        if store is not None:
            store.seal([(page, spec["schema"]) for spec in tables.values()
                        for page in spec["pages"][:-1]])
        for spec in tables.values():
            # A sealed page goes by the ref the store gave it; the open last
            # page (without a store, every page) goes as its rows — and keeps
            # no ref (a full page left last by a delete had one), so every ref
            # a store meets on a sealed page is one it gave or restored.
            pages = spec["pages"]
            if store is not None and pages:
                pages[-1]._ref = None
            spec["pages"] = [list(page.rows) if store is None or page is pages[-1]
                             else page._ref for page in pages]
        return {"model": "relational", "partitions": engine.partitions, "tables": tables}
    if isinstance(engine, KeyValueEngine):
        sstables = []
        for sst in engine._sstables:
            filename = getattr(sst, "_spill_file", None)
            if filename is None and store is not None:
                filename = store.spill_sstable(sst)
            if filename is not None:
                sstables.append({"file": filename})
            else:
                sstables.append({"entries": encode_entries(sst.items())})
        return {
            "model": "key_value",
            "capacity": engine._memtable.capacity,
            "memtable": encode_entries(engine._memtable.items()),
            "sstables": sstables,
            "wal_ops": list(engine._wal),
        }
    if isinstance(engine, TimeseriesEngine):
        series = {}
        for key, one in engine._series.items():
            series[key] = {
                "tags": dict(one.tags),
                "points": [(point.timestamp, point.value) for point in one],
            }
        return {"model": "timeseries", "series": series}
    if isinstance(engine, TextEngine):
        return {
            "model": "document",
            "documents": {doc_id: {"text": doc["text"],
                                   "metadata": dict(doc["metadata"])}
                          for doc_id, doc in engine._documents.items()},
        }
    raise StorageError(
        f"engine {engine.name!r} ({type(engine).__name__}) is not persistable"
    )


def restore_state(engine: Engine, state: dict[str, Any],
                  store: "EngineStore | None" = None) -> None:
    """Rebuild an engine's data structures from a snapshot payload."""
    if isinstance(engine, RelationalEngine):
        named = {entry[0] for spec in state["tables"].values()
                 for entry in spec.get("pages", ()) if isinstance(entry, tuple)}
        if named and store is None:
            raise StorageError("page refs need a store to load their segments")
        segments = {name: store.load_segment(name) for name in named}
        engine.partitions = state.get("partitions", engine.partitions)
        tables: dict[str, StoredTable] = {}
        for name, spec in state["tables"].items():
            columns, capacity = spec["schema"], spec["page_capacity"]
            # The parent's format pickled the Schema itself and holds the whole
            # table under "rows": cut it into full pages, as inserting it did.
            schema = columns if isinstance(columns, Schema) else Schema(
                Column(n, DataType(dtype), nullable) for n, dtype, nullable in columns)
            entries = spec["pages"] if "pages" in spec else [
                spec["rows"][at:at + capacity]
                for at in range(0, len(spec["rows"]), capacity)]
            pages = []
            for entry in entries:
                if isinstance(entry, tuple):  # (segment, index) of a sealed page
                    written_for, rows = segments[entry[0]][entry[1]]
                    if written_for != columns:
                        raise StorageError(
                            f"page {entry} was not written for table {name!r}")
                    pages.append(Page(capacity, rows, _ref=entry))
                else:
                    pages.append(Page(capacity, entry))
            tables[name] = stored_table(name, schema, capacity, pages, spec.get("shard_key"),
                                        engine.partitions, spec["hash_indexes"],
                                        spec["sorted_indexes"])
        engine._tables = tables
        return
    if isinstance(engine, KeyValueEngine):
        memtable = MemTable(state["capacity"])
        for key, value in decode_entries(state["memtable"]):
            memtable._entries[key] = value
        sstables: list[SSTable] = []
        for ref in state["sstables"]:
            if "file" in ref:
                if store is None:
                    raise StorageError("spilled SSTable needs a store to load")
                sstables.append(store.load_sstable(ref["file"]))
            else:
                sstables.append(SSTable(decode_entries(ref["entries"])))
        engine._memtable = memtable
        engine._sstables = sstables
        engine._wal = list(state["wal_ops"])
        return
    if isinstance(engine, TimeseriesEngine):
        series: dict[str, Series] = {}
        for key, spec in state["series"].items():
            one = Series(key, spec["tags"])
            for timestamp, value in spec["points"]:
                one.append(timestamp, value)
            series[key] = one
        engine._series = series
        return
    if isinstance(engine, TextEngine):
        engine._documents = {}
        engine._index = type(engine._index)()
        for doc_id, doc in state["documents"].items():
            engine._documents[doc_id] = {"text": doc["text"],
                                         "metadata": dict(doc["metadata"])}
            engine._index.add(doc_id, doc["text"])
        return
    raise StorageError(
        f"engine {engine.name!r} ({type(engine).__name__}) is not persistable"
    )


def stored_table(name: str, schema: Schema, capacity: int, pages: list[Page],
                 shard_key: str | None, partitions: int, hash_indexes: Any,
                 sorted_indexes: Any) -> StoredTable:
    """A table over ``pages`` as they are, its indexes built from them."""
    stored = StoredTable(name, schema, capacity, shard_key, partitions)
    stored.heap = HeapStorage.from_pages(schema, capacity, pages, stored.heap.partitioning)
    for column in hash_indexes:
        stored.hash_indexes[column] = stored.build_index(column, HashIndex)
    for column in sorted_indexes:
        stored.sorted_indexes[column] = stored.build_index(column, SortedIndex)
    return stored


# -- WAL replay ----------------------------------------------------------------------


def replay_record(engine: Engine, record: dict[str, Any]) -> bool:
    """Re-apply one WAL record; returns ``True`` for batch records.

    Meta records (mutations that bypass the changelog, e.g. index DDL)
    count separately — they bump no version counters, exactly as live.
    """
    if record["k"] == "m":
        _replay_meta(engine, record["op"])
        return False
    op = record.get("op")
    if op is None:
        raise StorageError(
            f"engine {engine.name!r}: WAL batch for scope {record.get('scope')!r} "
            f"carries no op payload and cannot be replayed"
        )
    kind, args = op
    entries = record.get("entries") or ()
    if isinstance(engine, RelationalEngine):
        _replay_relational(engine, kind, args, entries)
    elif isinstance(engine, KeyValueEngine):
        _replay_keyvalue(engine, kind, args)
    elif isinstance(engine, TimeseriesEngine):
        _replay_timeseries(engine, kind, args, entries)
    elif isinstance(engine, TextEngine):
        _replay_text(engine, kind, args)
    else:
        raise StorageError(f"engine {engine.name!r} is not replayable")
    return True


def _replay_meta(engine: Engine, op: tuple[str, dict[str, Any]]) -> None:
    kind, args = op
    if kind == "create_index":
        engine.create_index(args["table"], args["column"], kind=args["kind"])
        return
    raise StorageError(f"unknown meta op {kind!r} for engine {engine.name!r}")


def _replay_relational(engine: RelationalEngine, kind: str,
                       args: dict[str, Any], entries: Any) -> None:
    if kind == "create_table":
        engine.create_table(args["table"], args["schema"],
                            page_capacity=args["page_capacity"],
                            shard_key=args.get("shard_key"))
    elif kind == "drop_table":
        engine.drop_table(args["table"])
    elif kind == "insert":
        engine.insert(args["table"], [row for row, _ in entries])
    elif kind == "insert_torn":
        # The original insert failed mid-way: its landed rows were recorded
        # in the gap's op.  Re-land them and re-mark the gap so counters
        # and the changelog match the crashed process exactly.
        table = args["table"]
        engine._tables[table].insert(list(map(tuple, args["rows"])))
        engine.mark_data_changed(table_scope(table),
                                 op=("insert_torn", dict(args)))
    elif kind in ("delete", "update"):
        _replay_rewrite(engine, args["table"], entries, kind)
    else:
        raise StorageError(f"unknown relational op {kind!r}")


def _replay_rewrite(engine: RelationalEngine, table: str, entries: Any,
                    kind: str) -> None:
    """Replay a logged delete/update through the engine's own rewrite.

    The matcher takes each logged ``-1`` row off the heap by value, one
    occurrence per entry in scan order — equal rows satisfy a predicate
    alike, so these are the occurrences the live statement matched — and an
    update puts the paired ``+1`` row in its slot.  A whole page a delete
    dropped is logged as ``(its row list, weight)`` and replays as its rows.
    """
    entries = [(row, weight) for record, weight in entries
               for row in (record if type(record) is list else (record,))]
    if kind == "delete":
        pending = Counter(row for row, _ in entries)

        def matches(row: tuple) -> bool:
            if pending.get(row, 0) > 0:
                pending[row] -= 1
                return True
            return False

        engine._rewrite(table, matches)
    else:
        queued: dict[tuple, deque] = {}
        pairs = iter(entries)
        for (old, _), (new, _) in zip(pairs, pairs):
            queued.setdefault(old, deque()).append(new)
        engine._rewrite(table, lambda row: bool(queued.get(row)),
                        lambda row: queued[row].popleft())
    engine.mark_data_changed(table_scope(table), entries=entries,
                             op=(kind, {"table": table}))


def _replay_keyvalue(engine: KeyValueEngine, kind: str,
                     args: dict[str, Any]) -> None:
    if kind == "put":
        engine.put(args["key"], args["value"])
    elif kind == "delete":
        engine.delete(args["key"])
    else:
        raise StorageError(f"unknown key/value op {kind!r}")


def _replay_timeseries(engine: TimeseriesEngine, kind: str,
                       args: dict[str, Any], entries: Any) -> None:
    if kind == "create_series":
        engine.create_series(args["key"], args["tags"])
    elif kind == "append":
        (timestamp, value), _ = entries[0]
        engine.append(args["key"], timestamp, value)
    elif kind == "append_many":
        engine.append_many(args["key"], [point for point, _ in entries])
    else:
        raise StorageError(f"unknown timeseries op {kind!r}")


def _replay_text(engine: TextEngine, kind: str, args: dict[str, Any]) -> None:
    if kind == "add_document":
        engine.add_document(args["doc_id"], args["text"], args["metadata"])
    elif kind == "remove_document":
        engine.remove_document(args["doc_id"])
    else:
        raise StorageError(f"unknown document op {kind!r}")
