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

Online rebalancing (:mod:`repro.cluster.rebalance`) uses the three-phase
hooks at the bottom of the class: :meth:`begin_rebalance` atomically
snapshots the current data and installs a *pending* shard set that every
subsequent write is mirrored into (dual-write), while reads keep answering
from the old shard map; :meth:`cutover` swaps the maps atomically and keeps
``data_version`` monotonic; :meth:`abort_rebalance` discards the pending set.
"""

from __future__ import annotations

import contextlib
import heapq
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.cluster.partition import HashPartitioner, Partitioner
from repro.datamodel.schema import Column, DataType, Schema
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


@dataclass
class ShardPayload:
    """One unit of data extracted from a shard during a rebalance.

    ``table`` payloads travel through the
    :class:`~repro.middleware.migration.DataMigrator` (so the rebalance is
    charged realistic serialization + transfer costs); ``items`` payloads
    (arbitrary key/value objects) move by reference, mirroring how the
    executor treats non-tabular migrations.
    """

    kind: str                      # "relational_table" | "kv_items" | "ts_series"
    name: str                      # table name, series key, or shard name
    source_shard: str
    table: Table | None = None
    items: list[tuple[str, Any]] | None = None
    #: Series tags (timeseries payloads only), recreated at apply time.
    tags: dict[str, str] | None = None

    @property
    def rows(self) -> int:
        """Number of rows/entries this payload carries."""
        if self.table is not None:
            return len(self.table)
        return len(self.items or [])


_TS_PAYLOAD_SCHEMA = Schema([Column("timestamp", DataType.FLOAT),
                             Column("value", DataType.FLOAT)])


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
        #: ``create_table`` keyword arguments per table (e.g. page_capacity),
        #: replayed when a rebalance builds the pending shard set.
        self._table_kwargs: dict[str, dict[str, Any]] = {}
        #: Declared secondary indexes per table (column -> kind), created on
        #: every shard and replayed onto pending shards during a rebalance.
        self._table_indexes: dict[str, dict[str, str]] = {}
        #: ``(shards, partitioner)`` being populated by an in-flight
        #: rebalance; writes are mirrored into it, reads never see it.
        self._pending: tuple[list[Engine], Partitioner] | None = None
        #: Durability hook invoked (under the facade lock) after a cutover
        #: swaps the shard set; set by the durability manager so the new
        #: shard generation can be snapshotted and the manifest swapped.
        self._durability_cutover: Any = None
        #: Keys overwritten/deleted by dual-writes since ``begin_rebalance``.
        #: The snapshot copy must not clobber them: key/value puts are
        #: last-write-wins, so replaying a pre-snapshot value over a newer
        #: dual-written one would lose the update (or resurrect a delete).
        self._pending_overrides: set[str] = set()
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
        list must take both from one call — fetching them separately can
        tear across a concurrent rebalance cutover.
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

    def _serve(self, shards: list[Engine]) -> list[Engine]:
        """Make ``shards`` the serving set; returns the set it replaces.

        Only serving shards carry :meth:`_relay` on their logs: a pending
        set's snapshot copies and dual-writes never reach the facade log.
        Caller holds the lock (or owns the engine, as construction does).
        """
        retired, self._shards = self._shards, shards
        for shard in retired:
            shard.changelog.unsubscribe(self._relay)
        for shard in shards:
            shard.changelog.subscribe(self._relay)
        return retired

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
            description["rebalancing"] = self._pending is not None
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
            for shard in self._all_write_shards():
                shard.create_table(name, schema, **kwargs)
            self._shard_keys[name] = key
            self._table_kwargs[name] = dict(kwargs)
            staged.append((table_scope(name), (), (
                "create_table", {"table": name, "shard_key": key,
                                 "kwargs": dict(kwargs)})))

    def drop_table(self, name: str) -> None:
        """Drop ``name`` from every shard."""
        with self._routed_write() as staged:
            for shard in self._all_write_shards():
                shard.drop_table(name)
            self._shard_keys.pop(name, None)
            self._table_kwargs.pop(name, None)
            self._table_indexes.pop(name, None)
            staged.append((table_scope(name), None,
                           ("drop_table", {"table": name})))

    def create_index(self, table: str, column: str, *, kind: str = "hash") -> None:
        """Create a secondary index on every shard (and any pending shards)."""
        with self._lock:
            for shard in self._all_write_shards():
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
            self._mirror_relational_insert(table, key_index, grouped)
        return count

    def delete_rows(self, table: str, predicate: Any) -> list[tuple]:
        """Delete matching rows on every shard; returns the deleted rows.

        Refused while a rebalance is in flight: the snapshot copy could
        resurrect rows deleted from the pending shard set.
        """
        with self._routed_write():
            self._check_not_rebalancing("delete_rows")
            deleted: list[tuple] = []
            for shard in self._shards:
                deleted.extend(shard.delete_rows(table, predicate))
        return deleted

    def update_rows(self, table: str, predicate: Any,
                    updates: Mapping[str, Any]) -> list[tuple[tuple, tuple]]:
        """Update matching rows on every shard; returns ``(old, new)`` pairs.

        The shard key column cannot be updated (the row would need to move
        shards); refused while a rebalance is in flight.
        """
        with self._routed_write():
            self._check_not_rebalancing("update_rows")
            shard_key = self._shard_keys.get(table)
            if shard_key is not None and shard_key in updates:
                raise StorageError(
                    f"cannot update shard key column {shard_key!r} of {table!r}"
                )
            updated: list[tuple[tuple, tuple]] = []
            for shard in self._shards:
                updated.extend(shard.update_rows(table, predicate, updates))
        return updated

    def _check_not_rebalancing(self, operation: str) -> None:
        if self._pending is not None:
            raise ConfigurationError(
                f"engine {self.name!r} is rebalancing; {operation} is not "
                f"supported while dual-writes are active"
            )

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

    def _mirror_relational_insert(self, table: str, key_index: int,
                                  grouped: dict[int, list[tuple]]) -> None:
        if self._pending is None:
            return
        shards, partitioner = self._pending
        regrouped: dict[int, list[tuple]] = {}
        for shard_rows in grouped.values():
            for row in shard_rows:
                regrouped.setdefault(partitioner.shard_for(row[key_index]), []).append(row)
        for shard_index, shard_rows in regrouped.items():
            shards[shard_index].insert(table, shard_rows)

    # -- write routing: key/value, timeseries, text/document ---------------------------

    def _routed(self, key: str, write: Callable[[Engine], Any], *,
                overrides: bool = False) -> Any:
        """Apply ``write`` to the key's owning shard, and mirror it to the
        pending shard set of a rebalance.

        ``overrides``: the key's value is replaced, not extended, so the
        rebalance's copy phase must not write its older value over it.
        """
        with self._routed_write():
            owner = self._shards[self._partitioner.shard_for(key)]
            result = write(owner)
            if self._pending is not None:
                shards, partitioner = self._pending
                write(shards[partitioner.shard_for(key)])
                if overrides:
                    self._pending_overrides.add(key)
        return result

    def put(self, key: str, value: Any) -> None:
        """Insert or overwrite ``key`` on its owning shard."""
        self._routed(key, lambda shard: shard.put(key, value), overrides=True)

    def put_many(self, items: Mapping[str, Any]) -> None:
        """Insert or overwrite many keys."""
        for key, value in items.items():
            self.put(key, value)

    def delete(self, key: str) -> None:
        """Delete ``key`` from its owning shard."""
        self._routed(key, lambda shard: shard.delete(key), overrides=True)

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

    # -- rebalancing hooks (driven by repro.cluster.rebalance) -------------------------

    @property
    def rebalancing(self) -> bool:
        """Whether a rebalance is in flight (dual-writes active)."""
        with self._lock:
            return self._pending is not None

    # No changelog batch: topology bookkeeping; data deltas flow via dual-writes.
    def begin_rebalance(self, partitioner: Partitioner) -> list[ShardPayload]:
        """Atomically snapshot current data and install the pending shard set.

        Returns the snapshot payloads the rebalancer must copy into the new
        shards.  From this moment every write lands in *both* shard maps, so
        the snapshot plus the dual-writes equals the full state at cutover.
        """
        with self._lock:
            if self._pending is not None:
                raise ConfigurationError(
                    f"engine {self.name!r} is already rebalancing"
                )
            new_shards = [self._build_shard(i) for i in range(partitioner.num_shards)]
            for table in self._shard_keys:
                schema = self.table_schema(table)
                kwargs = self._table_kwargs.get(table, {})
                for shard in new_shards:
                    shard.create_table(table, schema, **kwargs)
                    for column, kind in self._table_indexes.get(table, {}).items():
                        shard.create_index(table, column, kind=kind)
            payloads = self._extract_snapshot()
            self._pending = (new_shards, partitioner)
            self._pending_overrides = set()
            return payloads

    def pending_topology(self) -> tuple[list[Engine], Partitioner]:
        """The shard set and partitioner being populated by a rebalance."""
        with self._lock:
            if self._pending is None:
                raise ConfigurationError(f"engine {self.name!r} is not rebalancing")
            shards, partitioner = self._pending
            return list(shards), partitioner

    # No changelog batch: replays snapshot rows already emitted by the source.
    def apply_payload(self, payload: ShardPayload, table: Table | None = None) -> int:
        """Load one (possibly migrated) snapshot payload into the pending shards.

        ``table`` is the payload's tabular data as received after migration;
        it defaults to the payload's own table.  Returns rows applied.
        """
        with self._lock:
            if self._pending is None:
                raise ConfigurationError(f"engine {self.name!r} is not rebalancing")
            shards, partitioner = self._pending
            if payload.kind == "relational_table":
                received = table if table is not None else payload.table
                assert received is not None
                key_index = received.schema.index_of(self._shard_keys[payload.name])
                grouped: dict[int, list[tuple]] = {}
                for row in received.rows:
                    grouped.setdefault(
                        partitioner.shard_for(row[key_index]), []).append(row)
                for shard_index, rows in grouped.items():
                    shards[shard_index].insert(payload.name, rows)
                return len(received)
            if payload.kind == "ts_series":
                received = table if table is not None else payload.table
                assert received is not None
                points = [(float(t), float(v)) for t, v in received.rows]
                owner = shards[partitioner.shard_for(payload.name)]
                series = owner.create_series(payload.name, payload.tags)
                if payload.tags:
                    # A dual-written append may have auto-created the series
                    # tagless before this payload arrived; create_series
                    # ignores tags for existing series, so merge explicitly.
                    series.tags.update(payload.tags)
                owner.append_many(payload.name, points)
                return len(points)
            if payload.kind == "kv_items":
                applied = 0
                for key, value in payload.items or []:
                    if key in self._pending_overrides:
                        continue  # a dual-write since the snapshot is newer
                    shards[partitioner.shard_for(key)].put(key, value)
                    applied += 1
                return applied
            raise ConfigurationError(f"unknown payload kind {payload.kind!r}")

    # No changelog batch: topology swap; every version bumped, nothing logged.
    def cutover(self) -> list[Engine]:
        """Swap the pending shard map in; returns the retired shards.

        The data is unchanged, so nothing is logged and view cursors stay
        valid; ``data_version`` and every scoped version still move up once,
        so each pinned snapshot revalidates against the new shard set.
        """
        with self._lock:
            if self._pending is None:
                raise ConfigurationError(f"engine {self.name!r} is not rebalancing")
            shards, self._partitioner = self._pending
            retired = self._serve(shards)
            self._pending = None
            self._pending_overrides = set()
            self._data_version += 1
            self._unscoped_version += 1
            if self._durability_cutover is not None:
                # Still under the facade lock: the new generation must be
                # snapshotted and the manifest swapped before any further
                # write can land on the new shards.
                self._durability_cutover(self, retired)
            return retired

    # No changelog batch: discards pending topology; facade data untouched.
    def abort_rebalance(self) -> None:
        """Discard the pending shard set (writes stop being mirrored)."""
        with self._lock:
            self._pending = None
            self._pending_overrides = set()

    def _extract_snapshot(self) -> list[ShardPayload]:
        payloads: list[ShardPayload] = []
        for shard in self._shards:
            if self.data_model is DataModel.RELATIONAL:
                for table in self._shard_keys:
                    payloads.append(ShardPayload(
                        kind="relational_table", name=table,
                        source_shard=shard.name, table=shard.scan(table)))
            elif self.data_model is DataModel.TIMESERIES:
                for key in shard.list_series():
                    series = shard.series(key)
                    rows = [(point.timestamp, point.value) for point in series]
                    payloads.append(ShardPayload(
                        kind="ts_series", name=key, source_shard=shard.name,
                        table=Table(_TS_PAYLOAD_SCHEMA, rows),
                        tags=dict(series.tags)))
            elif self.data_model is DataModel.KEY_VALUE:
                payloads.append(ShardPayload(
                    kind="kv_items", name=shard.name, source_shard=shard.name,
                    items=list(shard.scan())))
            else:
                raise ConfigurationError(
                    f"cannot rebalance a {self.data_model.value} sharded engine"
                )
        # Empty series still exist (and carry tags); only rowless table/kv
        # payloads are pure noise.
        return [payload for payload in payloads
                if payload.rows or payload.kind == "ts_series"]

    def _all_write_shards(self) -> list[Engine]:
        shards = list(self._shards)
        if self._pending is not None:
            shards.extend(self._pending[0])
        return shards

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
