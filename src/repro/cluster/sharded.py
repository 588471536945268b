"""ShardedEngine: horizontal partitioning of any substrate engine.

A :class:`ShardedEngine` wraps ``N`` instances of one substrate engine type
behind a pluggable :class:`~repro.cluster.partition.Partitioner` and presents
itself to the middleware as a single :class:`~repro.stores.base.Engine`: it
registers in the catalog, declares its shards' data model and concurrency
contract, and keeps one changelog and one set of version counters for them
all: a listener on each serving shard's log appends every shard batch to the
facade's log, whether the write was routed or made on the shard directly, so
a write to *any* shard reaches every view and pinned scan that read this
engine.

Writes route through the partitioner:

* relational rows route on a **declared shard key** column (per table),
* key/value puts route on the key,
* timeseries appends route on the series key (a series lives whole on one
  shard, which keeps window/summary reads shard-local).

Reads are scatter-gathered by the executor (see
:mod:`repro.cluster.scatter`); the engine itself also offers merged
convenience reads for direct native use.

The shard map is fixed for the engine's life: the count given at
construction, or the one a durable data directory recorded.
"""

from __future__ import annotations

import contextlib
import heapq
import threading
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.cluster.partition import HashPartitioner, Partitioner
from repro.datamodel.schema import Column, Schema
from repro.datamodel.table import Row, Table
from repro.exceptions import ConfigurationError, StorageError
from repro.stores.base import DataModel, Engine
from repro.stores.changelog import DeltaBatch, table_scope

#: Data models the scatter-gather executor can partition correctly.  Graph
#: engines are excluded: paths and neighbourhoods cross shard boundaries, so
#: a sharded graph engine would silently drop cross-shard edges.
PARTITIONABLE_MODELS = frozenset({
    DataModel.RELATIONAL, DataModel.KEY_VALUE, DataModel.TIMESERIES,
    DataModel.DOCUMENT,
})

ShardFactory = Callable[[int], Engine]


def _resolve_factory(name: str, shard_factory: ShardFactory | type) -> ShardFactory:
    if isinstance(shard_factory, type):
        if not issubclass(shard_factory, Engine):
            raise ConfigurationError(
                f"shard factory class {shard_factory.__name__} is not an Engine"
            )
        return lambda index: shard_factory(f"{name}-s{index}")
    return shard_factory


class ShardedEngine(Engine):
    """N substrate engine instances behind one partitioned facade."""

    def __init__(self, name: str, shard_factory: ShardFactory | type,
                 num_shards: int | None = None, *,
                 partitioner: Partitioner | None = None) -> None:
        super().__init__(name)
        if partitioner is None:
            if num_shards is None:
                raise ConfigurationError(
                    "ShardedEngine needs num_shards or an explicit partitioner"
                )
            partitioner = HashPartitioner(num_shards)
        elif num_shards is not None and num_shards != partitioner.num_shards:
            raise ConfigurationError(
                f"num_shards={num_shards} disagrees with the partitioner's "
                f"{partitioner.num_shards} shards"
            )
        self._factory = _resolve_factory(name, shard_factory)
        self._partitioner = partitioner
        self._lock = threading.RLock()
        #: What :meth:`_relay` stages for the routed write holding the lock.
        self._staged: list[tuple[str | None, Any, Any]] | None = None
        self._shards: list[Engine] = []
        self._serve([self._build_shard(i) for i in range(partitioner.num_shards)])
        #: Declared shard-key column per relational table.
        self._shard_keys: dict[str, str] = {}
        #: Declared secondary indexes per table (column -> kind), created on
        #: every shard.
        self._table_indexes: dict[str, dict[str, str]] = {}
        # Present the shards' data model as this engine's own.
        self.data_model = self._shards[0].data_model
        if self.data_model not in PARTITIONABLE_MODELS:
            # A sharded graph/tensor engine would silently answer from the
            # primary shard only — reject loudly instead.
            raise ConfigurationError(
                f"cannot shard a {self.data_model.value} engine: its reads "
                f"are not partitionable (see PARTITIONABLE_MODELS)"
            )

    def _build_shard(self, index: int) -> Engine:
        shard = self._factory(index)
        if not isinstance(shard, Engine):
            raise ConfigurationError(
                f"shard factory returned {type(shard).__name__}, not an Engine"
            )
        return shard

    # -- topology ---------------------------------------------------------------------

    @property
    def shards(self) -> list[Engine]:
        """The shard instances currently serving reads."""
        with self._lock:
            return list(self._shards)

    @property
    def num_shards(self) -> int:
        """Number of shards currently serving reads."""
        with self._lock:
            return len(self._shards)

    @property
    def primary(self) -> Engine:
        """The designated primary shard (non-partitionable operators run here)."""
        with self._lock:
            return self._shards[0]

    @property
    def partitioner(self) -> Partitioner:
        """The partitioner behind the current shard map."""
        with self._lock:
            return self._partitioner

    def topology(self) -> tuple[list[Engine], Partitioner]:
        """The current ``(shards, partitioner)`` pair, read atomically.

        Readers that route with a partitioner and then index into the shard
        list take both from one call: durability restore installs the
        recorded map in place of the one the constructor built.
        """
        with self._lock:
            return list(self._shards), self._partitioner

    def shard(self, index: int) -> Engine:
        """One shard by index."""
        with self._lock:
            return self._shards[index]

    def shard_for(self, key: Any) -> Engine:
        """The shard currently owning ``key``."""
        with self._lock:
            return self._shards[self._partitioner.shard_for(key)]

    def shard_key_for(self, table: str) -> str | None:
        """The declared shard-key column of a relational table (or ``None``)."""
        with self._lock:
            return self._shard_keys.get(table)

    @property
    def partitionable(self) -> bool:
        """Whether the executor may scatter-gather reads across the shards."""
        return self.data_model in PARTITIONABLE_MODELS

    # -- changelog relay ---------------------------------------------------------------

    def _serve(self, shards: list[Engine]) -> None:
        """Make ``shards`` the serving set.

        Only serving shards carry :meth:`_relay` on their logs: the shards a
        durability restore retires stop reaching the facade log.  Caller
        holds the lock (or owns the engine, as construction does).
        """
        retired, self._shards = self._shards, shards
        for shard in retired:
            shard.changelog.unsubscribe(self._relay)
        for shard in shards:
            shard.changelog.subscribe(self._relay)

    def _relay(self, batch: DeltaBatch) -> None:
        """Listener on every serving shard's log: one shard batch, one facade batch.

        Inside :meth:`_routed_write` (this thread holds the lock, so
        ``_staged`` is its list) the batch is staged for the write to
        append.  Any other shard batch — a write made directly on a shard
        instance — is appended and delivered at once.
        """
        entries = None if batch.gap else batch.parts  # page entries stay pages
        with self._lock:
            if self._staged is not None:
                self._staged.append((batch.scope, entries, None))
                return
            appended = self.mark_data_changed(batch.scope, entries, notify=False)
        self.changelog.notify_batch(appended)

    @contextlib.contextmanager
    def _routed_write(self) -> Iterator[list[tuple[str | None, Any, Any]]]:
        """The one place that owns the write/append/notify ordering.

        Usage: ``with self._routed_write() as staged: shard.put(...)``.  The
        facade lock is held across the shard mutations and the facade-log
        append of what :meth:`_relay` staged meanwhile (so ``snapshot_scan``
        stays atomic with the log); a facade op of its own goes in
        ``staged`` as ``(scope, entries, op)``.  Listeners are notified after
        the lock is released (an eager view refresh may read this engine).
        A body that raises mid-write still appends what its shards logged:
        those mutations really happened.
        """
        appended: list[DeltaBatch] = []
        try:
            with self._lock:
                staged: list[tuple[str | None, Any, Any]] = []
                self._staged = staged
                try:
                    yield staged
                finally:
                    self._staged = None
                    appended = [self.mark_data_changed(scope, entries,
                                                       notify=False, op=op)
                                for scope, entries, op in staged]
        finally:
            for batch in appended:
                self.changelog.notify_batch(batch)

    def snapshot_scan(self, table: str, columns: Sequence[str] | None = None
                      ) -> tuple[Table, int]:
        """An atomic ``(merged scan, changelog head)`` pair.

        Routed writes and their facade-log appends share the facade lock, so
        a snapshot taken under it is quiescent by construction: every row it
        contains is covered by a batch at or before the returned head, and
        every later batch describes data the snapshot does not contain.
        """
        with self._lock:
            return self.scan(table, columns), self.changelog.latest_seq

    def describe(self) -> dict[str, Any]:
        description = super().describe()
        with self._lock:
            description["shards"] = [shard.name for shard in self._shards]
            description["partitioner"] = self._partitioner.describe()
            description["shard_keys"] = dict(self._shard_keys)
        return description

    # -- write routing: relational ----------------------------------------------------

    def create_table(self, name: str, schema: Schema, *, shard_key: str | None = None,
                     **kwargs: Any) -> None:
        """Create ``name`` on every shard, declaring its shard-key column.

        The shard key defaults to the schema's first column; rows route by
        the partitioner applied to that column's value.
        """
        key = shard_key if shard_key is not None else schema.names[0]
        if key not in schema:
            raise StorageError(f"shard key {key!r} is not a column of {name!r}")
        with self._routed_write() as staged:
            for shard in self._shards:
                shard.create_table(name, schema, **kwargs)
            self._shard_keys[name] = key
            staged.append((table_scope(name), (), (
                "create_table", {"table": name, "shard_key": key})))

    def drop_table(self, name: str) -> None:
        """Drop ``name`` from every shard."""
        with self._routed_write() as staged:
            for shard in self._shards:
                shard.drop_table(name)
            self._shard_keys.pop(name, None)
            self._table_indexes.pop(name, None)
            staged.append((table_scope(name), None,
                           ("drop_table", {"table": name})))

    def create_index(self, table: str, column: str, *, kind: str = "hash") -> None:
        """Create a secondary index on every shard."""
        with self._lock:
            for shard in self._shards:
                shard.create_index(table, column, kind=kind)
            self._table_indexes.setdefault(table, {})[column] = kind
            self.emit_durability_meta(("create_index", {"table": table,
                                                        "column": column,
                                                        "kind": kind}))

    def has_index(self, table: str, column: str) -> bool:
        """Whether every shard carries an index on ``table.column``."""
        with self._lock:
            return column in self._table_indexes.get(table, {})

    def insert(self, table: str, rows: Iterable[Sequence[Any]], **kwargs: Any) -> int:
        """Insert positional rows, routing each by the table's shard key."""
        with self._routed_write():
            key_index = self._shard_key_index(table)
            count = 0
            grouped: dict[int, list[tuple]] = {}
            for row in rows:
                row_t = tuple(row)
                grouped.setdefault(
                    self._partitioner.shard_for(row_t[key_index]), []).append(row_t)
                count += 1
            for shard_index, shard_rows in grouped.items():
                self._shards[shard_index].insert(table, shard_rows, **kwargs)
        return count

    def delete_rows(self, table: str, predicate: Any) -> list[tuple]:
        """Delete matching rows on every shard; returns the deleted rows."""
        with self._routed_write():
            deleted: list[tuple] = []
            for shard in self._shards:
                deleted.extend(shard.delete_rows(table, predicate))
        return deleted

    def update_rows(self, table: str, predicate: Any,
                    updates: Mapping[str, Any]) -> list[tuple[tuple, tuple]]:
        """Update matching rows on every shard; returns ``(old, new)`` pairs.

        The shard key column cannot be updated (the row would need to move
        shards).
        """
        with self._routed_write():
            shard_key = self._shard_keys.get(table)
            if shard_key is not None and shard_key in updates:
                raise StorageError(
                    f"cannot update shard key column {shard_key!r} of {table!r}"
                )
            updated: list[tuple[tuple, tuple]] = []
            for shard in self._shards:
                updated.extend(shard.update_rows(table, predicate, updates))
        return updated

    def insert_dicts(self, table: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert dictionary rows, routing each by the table's shard key."""
        names = self.table_schema(table).names
        return self.insert(table, (tuple(row.get(n) for n in names) for row in rows))

    def load_table(self, name: str, table: Table, *, shard_key: str | None = None,
                   **kwargs: Any) -> None:
        """Create ``name`` from an in-memory table and route its rows."""
        self.create_table(name, table.schema, shard_key=shard_key, **kwargs)
        self.insert(name, table.rows)

    def _shard_key_index(self, table: str) -> int:
        key = self._shard_keys.get(table)
        if key is None:
            raise StorageError(
                f"table {table!r} has no declared shard key (create it through "
                f"the ShardedEngine, not on individual shards)"
            )
        return self.table_schema(table).index_of(key)

    # -- write routing: key/value, timeseries, text/document ---------------------------

    def _routed(self, key: str, write: Callable[[Engine], Any]) -> Any:
        """Apply ``write`` to the key's owning shard."""
        with self._routed_write():
            return write(self._shards[self._partitioner.shard_for(key)])

    def put(self, key: str, value: Any) -> None:
        """Insert or overwrite ``key`` on its owning shard."""
        self._routed(key, lambda shard: shard.put(key, value))

    def put_many(self, items: Mapping[str, Any]) -> None:
        """Insert or overwrite many keys."""
        for key, value in items.items():
            self.put(key, value)

    def delete(self, key: str) -> None:
        """Delete ``key`` from its owning shard."""
        self._routed(key, lambda shard: shard.delete(key))

    def create_series(self, key: str, tags: dict[str, str] | None = None) -> Any:
        """Create (or return) a series on its owning shard."""
        return self._routed(key, lambda shard: shard.create_series(key, tags))

    def append(self, key: str, timestamp: float, value: float) -> None:
        """Append one point to the series' owning shard."""
        self._routed(key, lambda shard: shard.append(key, timestamp, value))

    def append_many(self, key: str, points: Iterable[tuple[float, float]]) -> int:
        """Append many points to the series' owning shard."""
        materialized = list(points)
        return int(self._routed(key, lambda shard: shard.append_many(key, materialized)))

    def add_document(self, doc_id: str, text: str, **kwargs: Any) -> Any:
        """Index one document on its owning shard (routed by ``doc_id``)."""
        return self._routed(doc_id, lambda shard: shard.add_document(doc_id, text, **kwargs))

    # -- merged reads (direct native use; the executor scatter-gathers itself) --------

    def get(self, key: str, default: Any = None) -> Any:
        """Point lookup routed to the owning shard."""
        return self.shard_for(key).get(key, default)

    def multi_get(self, keys: list[str]) -> dict[str, Any]:
        """Point lookups grouped by owning shard."""
        out: dict[str, Any] = {}
        with self._lock:
            grouped = self._partitioner.shards_for(keys)
            shards = list(self._shards)
        for shard_index, shard_keys in grouped.items():
            out.update(shards[shard_index].multi_get(list(shard_keys)))
        return out

    def range(self, start: str | None = None,
              end: str | None = None) -> Iterator[tuple[str, Any]]:
        """Key-ordered merge of every shard's range scan."""
        parts = [list(shard.range(start, end)) for shard in self.shards]
        yield from heapq.merge(*parts, key=lambda pair: pair[0])

    def scan(self, *args: Any, **kwargs: Any) -> Any:
        """Merged full scan.

        For relational shards this is ``scan(table, columns)`` returning the
        concatenation of every shard's rows; for key/value shards it is the
        key-ordered merged iterator.
        """
        if self.data_model is DataModel.KEY_VALUE and not args and not kwargs:
            return self.range(None, None)
        parts = [shard.scan(*args, **kwargs) for shard in self.shards]
        return concat_tables(parts)

    def query_range(self, key: str, start: float | None = None,
                    end: float | None = None) -> Any:
        """Timeseries range read routed to the series' owning shard."""
        return self.shard_for(key).query_range(key, start, end)

    def summarize(self, key: str, start: float | None = None,
                  end: float | None = None) -> Any:
        """Timeseries summary routed to the series' owning shard."""
        return self.shard_for(key).summarize(key, start, end)

    def list_series(self, tag_filter: dict[str, str] | None = None) -> list[str]:
        """Union of every shard's series keys."""
        keys: set[str] = set()
        for shard in self.shards:
            keys.update(shard.list_series(tag_filter))
        return sorted(keys)

    def has_series(self, key: str) -> bool:
        """Whether the owning shard holds the series."""
        return bool(self.shard_for(key).has_series(key))

    # -- relational metadata (catalog + compiler hooks) --------------------------------

    def table_schema(self, name: str) -> Schema:
        """Schema of a sharded table (identical on every shard)."""
        return self.primary.table_schema(name)

    def has_table(self, name: str) -> bool:
        """Whether the sharded table exists."""
        return bool(self.primary.has_table(name))

    def list_tables(self) -> list[str]:
        """Names of sharded tables."""
        return self.primary.list_tables()

    def table_statistics(self, name: str) -> dict[str, Any]:
        """Aggregated statistics: total rows plus the per-shard breakdown."""
        per_shard = [shard.table_statistics(name) for shard in self.shards]
        merged = dict(per_shard[0])
        merged["rows"] = sum(int(stats.get("rows", 0)) for stats in per_shard)
        merged["shard_rows"] = [int(stats.get("rows", 0)) for stats in per_shard]
        merged["shards"] = len(per_shard)
        return merged

    def __repr__(self) -> str:
        return (f"ShardedEngine(name={self.name!r}, shards={self.num_shards}, "
                f"model={self.data_model.value})")


def align_tables(parts: Sequence[Table]) -> tuple[Schema, list[list[Row]]]:
    """One schema for all ``parts`` plus each part's rows laid out in it.

    Relational shards share a plan-typed schema and their row lists come back
    as they are.  Schemaless stores (key/value) type each shard's table from
    that shard's own records, so the parts may disagree: the common schema is
    then the union of the parts' columns (first declaration wins) and rows
    are re-laid out positionally, ``None`` where a part lacks a column.
    """
    schema = parts[0].schema
    if all(part.schema == schema for part in parts):
        return schema, [part.rows for part in parts]
    columns: dict[str, Column] = {}
    for part in parts:
        for column in part.schema:
            columns.setdefault(column.name, column)
    schema = Schema(columns.values())
    aligned = []
    for part in parts:
        picks = [part.schema.index_of(name) if name in part.schema else None
                 for name in schema.names]
        aligned.append([tuple(None if i is None else row[i] for i in picks)
                        for row in part.rows])
    return schema, aligned


def concat_tables(parts: Sequence[Table]) -> Table:
    """Union-all of per-shard tables, tolerant of empty parts."""
    if not parts:
        raise ConfigurationError("cannot concatenate zero shard results")
    non_empty = [part for part in parts if len(part)]
    if not non_empty:
        return parts[0]
    schema, runs = align_tables(non_empty)
    return Table.wrap(schema, [row for run in runs for row in run])
