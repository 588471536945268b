"""The relational data-processing engine.

A from-scratch, single-node relational store: tables live in heap pages
(:mod:`repro.stores.relational.storage`), optional secondary indexes provide
point/range access paths, and a small SQL dialect is parsed and folded into
the positional, plan-typed operators that execute it.  What a read or write
examined is :class:`HeapStorage`'s return value; the engine keeps no record
of it.
"""

from __future__ import annotations

import threading
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.datamodel.schema import Schema
from repro.datamodel.table import Row, Table
from repro.exceptions import ConfigurationError, StorageError
from repro.stores.base import DataModel, Engine
from repro.stores.changelog import PageEntry, PageParts, table_scope
from repro.stores.relational import kernels
from repro.stores.relational.expressions import Expression, leading_checks
from repro.stores.relational.index import HashIndex, SortedIndex
from repro.stores.relational.operators import (
    RUN,
    AggregateSpec,
    TableScan,
    TopK,
    aggregate_kernel,
    build_operator,
    vector_fold,
)
from repro.stores.relational.partition import partition_of, partitions_equal_to
from repro.stores.relational.sql import lower_select, parse_select
from repro.stores.relational.storage import HeapStorage, Page


class StoredTable:
    """A table registered in the engine: heap storage plus its indexes.  A
    table with a ``shard_key`` split into ``partitions`` (more than one) is
    partitioned: its heap prunes pages by the key's partitions."""

    def __init__(self, name: str, schema: Schema, page_capacity: int = 256,
                 shard_key: str | None = None, partitions: int = 1) -> None:
        self.name = name
        self.schema = schema
        self.shard_key = shard_key
        self.heap = HeapStorage(schema, page_capacity, (
            schema.index_of(shard_key), partitions)
            if shard_key is not None and partitions > 1 else None)
        self.hash_indexes: dict[str, HashIndex] = {}
        self.sorted_indexes: dict[str, SortedIndex] = {}

    def insert(self, rows: list[Row]) -> None:
        """Land row tuples in the heap (:meth:`HeapStorage.insert_many`), then
        in every index from the row-id spans the heap returns.

        Every index answers as a scan of the heap does, whatever fails.  A row
        whose key a hash index cannot take (an unhashable value) ends the
        batch: the rows ahead of it land, in the heap and every index, then
        its ``TypeError`` is raised.  So does one a sorted index cannot order
        against its keys.  If landing fails part way, each index is rebuilt
        from the heap."""
        indexes = [*self.hash_indexes.values(), *self.sorted_indexes.values()]
        keys = [list(map(itemgetter(self.schema.index_of(index.column)), rows))
                for index in indexes]
        refused = None
        for index, column in zip(indexes, keys):
            if (refusal := index.refusal(column[:len(rows)])) is not None:
                rows, refused = rows[:refusal[0]], refusal[1]
        try:
            spans = self.heap.insert_many(rows)
            rids = [(page, slot) for page, first, end in spans
                    for slot in range(first, end)] if indexes else []
            for index, column in zip(indexes, keys):
                index.bulk_load(zip(column, rids))
        except BaseException:
            for built in (self.hash_indexes, self.sorted_indexes):
                for column, index in built.items():
                    built[column] = self.build_index(column, type(index))
            raise
        if refused is not None:
            raise refused

    def build_index(self, column: str, kind: type) -> HashIndex | SortedIndex:
        """A ``kind`` index over ``column``, loaded from the current heap."""
        position = self.schema.index_of(column)
        index = kind(column)
        index.bulk_load((row[position], rid)
                        for rid, row in self.heap.scan_with_rids())
        return index

    def rewritten(self, matches: Expression | Callable[[Row], Any],
                  patch: Callable[[Row], Row] | None = None,
                  written: Mapping[str, Any] | None = None
                  ) -> tuple["StoredTable", list[Row], list[Row], dict[int, Page]]:
        """The table a delete (no ``patch``) or an update leaves, beside this one.

        The one primitive behind ``delete_rows``, ``update_rows`` and their
        WAL replay.  Pages are shared as :meth:`HeapStorage.rewrite` says and
        this table is not touched, so a reader holding it keeps resolving
        every row id of every index it holds.  An update keeps row ids: an
        index on a column outside ``written`` (the value ``patch`` sets in
        each column it changes; ``None``: any column), or none of whose keys
        changed, is copied, not reloaded; an index whose keys did change —
        after a delete, where row ids move, every index — is loaded from the
        new heap.  Returns the table (this one if nothing matched), matched
        rows, replacements and the pages a delete dropped whole, by where
        their rows start in the matched rows.
        """
        heap, matched, patched, whole, _, _ = self.heap.rewrite(matches, patch, written)
        if not matched:
            return self, matched, patched, whole
        sibling = StoredTable(self.name, self.schema, heap.page_capacity, self.shard_key)
        sibling.heap = heap
        for ours, theirs in ((self.hash_indexes, sibling.hash_indexes),
                             (self.sorted_indexes, sibling.sorted_indexes)):
            for column, index in ours.items():
                position = self.schema.index_of(column)
                if patch is not None and (
                        written is not None and column not in written
                        or all(old[position] == new[position]
                               for old, new in zip(matched, patched))):
                    theirs[column] = index.copy()
                else:
                    theirs[column] = sibling.build_index(column, type(index))
        return sibling, matched, patched, whole

    def statistics(self) -> dict[str, Any]:
        """Table statistics for the catalog and cost models."""
        stats = self.heap.statistics()
        stats["hash_indexes"] = sorted(self.hash_indexes)
        stats["sorted_indexes"] = sorted(self.sorted_indexes)
        return stats


class HeapRead:
    """One relational read of a stored table's heap.

    A plain read filters and projects the candidate pages in one generated
    walk (:meth:`HeapStorage.select`).  With ``aggregate`` — ``(group_by,
    aggregates)`` — the walk folds the rows into the aggregate's result
    instead, one row per group, groups in first-seen order, ``avg`` finished
    in the kernel: the table the aggregate fused into the scan hands on.  The
    rows are read before any projection, so ``columns`` only has to exist.
    Sealed pages fold with numpy in runs of up to ``RUN`` where it reads them
    exactly (``VectorFold``), the rest, always the last page, with the row
    kernel (``aggregate_kernel``), all into one dict: each group once, in
    first-seen order, and every sum one left fold in read order, so the fused
    plan answers as the unfused one does.
    """

    def __init__(self, stored: StoredTable, columns: Sequence[str] | None = None,
                 predicate: Expression | None = None,
                 aggregate: tuple[Sequence[str], Sequence[AggregateSpec]] | None = None
                 ) -> None:
        self.columns, self.predicate, self.aggregate = columns, predicate, aggregate
        self.schema, self.heap = stored.schema, stored.heap

    def table(self) -> Table:
        """The read's rows (or groups), walked once over the heap."""
        source, columns, predicate = self.schema, self.columns, self.predicate
        schema = source if columns is None else source.project(columns)
        if self.aggregate is None:
            return Table.wrap(schema, self.heap.select(predicate, columns)[0])
        candidates, pages = self.heap.candidates(predicate)
        group_by, aggregates = tuple(self.aggregate[0]), tuple(self.aggregate[1])
        fold, schema = aggregate_kernel(  # over no page, bind nothing
            source, group_by, aggregates, predicate if pages else None)
        vector = len(candidates) > 1 and vector_fold(source, group_by, aggregates, predicate)
        groups: dict = {}
        chunks: list[list[Row]] = []
        # Up to RUN sealed pages of equal kinds fold as one run; the last
        # page may still change, so the row kernel folds it into the rows.
        sealed = candidates[:-1] if vector else []
        for run, parts in chain.from_iterable(vector.runs(sealed[at:at + RUN])
                                              for at in range(0, len(sealed), RUN)):
            if parts is not None:
                if chunks:
                    fold(chunks, groups)
                    chunks = []
                if vector.fold(run, parts, groups):
                    continue
            chunks.extend(page.rows for page in run)
        chunks.extend(page.rows for page in candidates[len(sealed):])
        return Table.wrap(schema, fold(chunks, groups))


class RelationalEngine(Engine):
    """A single-node relational engine with SQL, indexes and hash joins.

    A table created with a shard key splits into the engine's ``partitions``
    (:mod:`~repro.stores.relational.partition`); with one partition, the
    default, no table is partitioned.
    """

    data_model = DataModel.RELATIONAL

    def __init__(self, name: str = "relational", partitions: int = 1) -> None:
        super().__init__(name)
        if partitions < 1:
            raise ConfigurationError("a relational engine needs at least one partition")
        self.partitions = partitions
        self._tables: dict[str, StoredTable] = {}
        #: Serializes mutations against each other and against
        #: :meth:`snapshot_scan`; plain reads stay lock-free.
        self._write_lock = threading.RLock()

    # -- DDL ---------------------------------------------------------------------

    def create_table(self, name: str, schema: Schema, *, page_capacity: int = 256,
                     shard_key: str | None = None) -> None:
        """Create an empty table, partitioned on ``shard_key`` — by default,
        on an engine of more than one partition, the schema's first column."""
        if shard_key is None and self.partitions > 1:
            shard_key = schema.names[0]
        if shard_key is not None and shard_key not in schema:
            raise StorageError(f"shard key {shard_key!r} is not a column of {name!r}")
        with self._write_lock:
            if name in self._tables:
                raise StorageError(f"table {name!r} already exists")
            self._tables[name] = StoredTable(name, schema, page_capacity, shard_key,
                                             self.partitions)
            batch = self.mark_data_changed(
                table_scope(name), entries=(), notify=False,
                op=("create_table", {"table": name, "schema": schema,
                                     "page_capacity": page_capacity,
                                     "shard_key": shard_key,
                                     "partitions": self.partitions}))
        # Listeners run outside the write lock (an eager view refresh may
        # take its own lock and read back through snapshot_scan).
        self.changelog.notify_batch(batch)

    def drop_table(self, name: str) -> None:
        """Drop a table and its indexes."""
        with self._write_lock:
            if name not in self._tables:
                raise StorageError(f"table {name!r} does not exist")
            del self._tables[name]
            # A drop cannot be described row-by-row: log a gap so delta
            # consumers of the table resync instead of silently diverging.
            batch = self.mark_data_changed(table_scope(name), notify=False,
                                           op=("drop_table", {"table": name}))
        self.changelog.notify_batch(batch)

    def create_index(self, table: str, column: str, *, kind: str = "hash") -> None:
        """Create a secondary index on an existing table column.  A sorted
        index over keys that do not order against each other is refused
        (``StorageError``), and the table is left without it."""
        # Under the write lock: no insert grows the heap while the index loads,
        # no update retires the table the index is about to be attached to.
        with self._write_lock:
            stored = self._stored(table)
            if column not in stored.schema:
                raise StorageError(f"table {table!r} has no column {column!r}")
            if kind == "hash":
                stored.hash_indexes[column] = stored.build_index(column, HashIndex)
            elif kind == "sorted":
                index = stored.build_index(column, SortedIndex)
                index.flush()  # sorts the keys now: raises if they do not order
                stored.sorted_indexes[column] = index
            else:
                raise StorageError(f"unknown index kind {kind!r}")
            # Index DDL changes no data version, so it never reaches the
            # changelog — report it on the durability side channel instead.
            self.emit_durability_meta(("create_index", {"table": table,
                                                        "column": column,
                                                        "kind": kind}))

    def list_tables(self) -> list[str]:
        """Names of all registered tables."""
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        """Whether ``name`` is a registered table."""
        return name in self._tables

    def table_schema(self, name: str) -> Schema:
        """Schema of a registered table."""
        return self._stored(name).schema

    def table_statistics(self, name: str) -> dict[str, Any]:
        """Statistics of a registered table."""
        return self._stored(name).statistics()

    # -- DML ---------------------------------------------------------------------

    def insert(self, table: str, rows: Iterable[Sequence[Any]], *,
               validate: bool = False) -> int:
        """Insert positional rows into a table; returns the count inserted.

        Each row is made a tuple (and validated) before any lands in one
        :meth:`StoredTable.insert`; a partitioned table's batch is first
        stable-sorted by partition, so its pages fill one partition at a time.
        If a row fails, those before it land and, read off the heap's row
        count, are logged as an ``insert_torn`` gap.
        """
        batch = None
        landing: list[Row] = []
        try:
            with self._write_lock:
                stored = self._stored(table)
                before = stored.heap.num_rows
                try:
                    try:
                        # What came before a failing row stays (a row that
                        # validates makes ``validate_row`` return ``None``).
                        landing.extend((row for row in map(tuple, rows)
                                        if not stored.schema.validate_row(row))
                                       if validate else map(tuple, rows))
                    finally:
                        if stored.heap.partitioning is not None:
                            key, count = stored.heap.partitioning
                            landing.sort(key=lambda row: partition_of(row[key], count))
                        stored.insert(landing)
                except BaseException:
                    landed = landing[:stored.heap.num_rows - before]
                    if landed:
                        # Unrecorded, these rows would let pinned snapshots
                        # and views diverge: a gap makes them resync, and its
                        # op lets durable replay rebuild the torn heap.
                        batch = self.mark_data_changed(
                            table_scope(table), notify=False,
                            op=("insert_torn", {"table": table, "rows": landed}))
                    raise
                if landing:
                    batch = self.mark_data_changed(
                        table_scope(table),
                        entries=[(row, 1) for row in landing], notify=False,
                        op=("insert", {"table": table}))
        finally:
            if batch is not None:
                self.changelog.notify_batch(batch)
        return len(landing)

    def delete_rows(self, table: str, predicate: Expression) -> list[tuple]:
        """Delete every row satisfying ``predicate``; returns the deleted rows.

        Pages holding a deleted row are copied without it, all others are
        shared with the table readers may still hold (see
        :meth:`StoredTable.rewritten`); the deletions land in the changelog
        as weight ``-1`` entries, a page dropped whole as one
        :class:`~repro.stores.changelog.PageEntry`.
        """
        batch = None
        with self._write_lock:
            deleted, _, whole = self._rewrite(table, predicate)
            if deleted:
                entries: list[Any] = []
                at = 0
                for start, page in whole.items():
                    entries += [(row, -1) for row in deleted[at:start]]
                    entries.append(PageEntry(page, -1))
                    at = start + len(page.rows)
                entries += [(row, -1) for row in deleted[at:]]
                batch = self.mark_data_changed(
                    table_scope(table), entries=PageParts(entries) if whole else entries,
                    notify=False,
                    op=("delete", {"table": table}))
        if batch is not None:
            self.changelog.notify_batch(batch)
        return deleted

    def update_rows(self, table: str, predicate: Expression,
                    updates: Mapping[str, Any]) -> list[tuple[tuple, tuple]]:
        """Set columns on every row satisfying ``predicate``.

        Returns ``(old_row, new_row)`` pairs; each update is logged as a
        ``-1``/``+1`` entry pair (the Z-set form of an upsert).
        """
        batch = None
        with self._write_lock:
            stored = self._stored(table)
            schema = stored.schema
            for column in updates:
                if column not in schema:
                    raise StorageError(f"table {table!r} has no column {column!r}")
            if stored.shard_key in updates:
                raise StorageError(
                    f"cannot update shard key column {stored.shard_key!r} of {table!r}")
            # One generated tuple display per patched row, the new values bound.
            out = kernels.Source(schema)
            patch = out.kernel("patch", "row", "return (" + "".join(
                (out.constant(updates[name]) if name in updates else out.column(name))
                + "," for name in schema.names) + ")")
            olds, news, _ = self._rewrite(table, predicate, patch, updates)
            updated = list(zip(olds, news))
            if updated:
                entries: list[tuple[tuple, int]] = []
                for old, new in updated:
                    entries.append((old, -1))
                    entries.append((new, 1))
                batch = self.mark_data_changed(table_scope(table),
                                               entries=entries, notify=False,
                                               op=("update", {"table": table}))
        if batch is not None:
            self.changelog.notify_batch(batch)
        return updated

    def snapshot_scan(self, table: str, columns: Sequence[str] | None = None
                      ) -> tuple[Table, int]:
        """An atomic ``(scan, changelog head)`` pair.

        Taken under the write lock, so every row in the snapshot is covered
        by a batch at or before the returned head — the consistency anchor
        materialized-view resyncs need (a plain scan racing a writer could
        contain a row whose batch lands after the scan, which a delta
        consumer would then double-apply).
        """
        with self._write_lock:
            return self.scan(table, columns), self.changelog.latest_seq

    def _rewrite(self, table: str, matches: Expression | Callable[[Row], Any],
                 patch: Callable[[Row], Row] | None = None,
                 written: Mapping[str, Any] | None = None
                 ) -> tuple[list[Row], list[Row], dict[int, Page]]:
        """Run a delete or update (:meth:`StoredTable.rewritten`; ``written``,
        an update's assignments, ``None`` for any column) and publish
        it in one step; returns matched rows, replacements and the pages
        dropped whole.  Callers hold
        the write lock; readers take ``self._tables[name]`` once, so they see
        the table before the statement or after it.
        """
        sibling, matched, patched, whole = self._stored(table).rewritten(
            matches, patch, written)
        self._tables[table] = sibling
        return matched, patched, whole

    def insert_dicts(self, table: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert dictionary rows into a table."""
        stored = self._stored(table)
        names = stored.schema.names
        return self.insert(table, (tuple(row.get(n) for n in names) for row in rows))

    def load_table(self, name: str, table: Table, *, page_capacity: int = 256,
                   shard_key: str | None = None) -> None:
        """Create ``name`` from an in-memory :class:`Table` and load its rows."""
        self.create_table(name, table.schema, page_capacity=page_capacity,
                          shard_key=shard_key)
        self.insert(name, table.rows)

    # -- query execution ------------------------------------------------------------

    def execute_sql(self, sql: str) -> Table:
        """Parse a SELECT statement, fold it into physical operators and run them.

        Without a join the ``WHERE`` goes to the leaf, which evaluates it page
        by page and only where the summaries allow (:meth:`HeapStorage.select`).
        """
        statement = parse_select(sql)
        pushed = None
        if not statement.joins:
            pushed, statement.where = statement.where, None

        def leaf(table: str) -> TableScan:
            stored = self._stored(table)
            if pushed is not None and not stored.heap.num_rows:
                pushed.compile(stored.schema)  # select binds nothing over no rows; SQL does
            return TableScan(Table.wrap(stored.schema, stored.heap.select(pushed)[0]))

        return lower_select(statement, leaf, build_operator).to_table()

    # -- direct native operations (used by the adapter) ---------------------------------

    def scan(self, table: str, columns: Sequence[str] | None = None,
             predicate: Expression | None = None,
             partial: tuple[Sequence[str], Sequence[AggregateSpec]] | None = None
             ) -> Table:
        """The rows of a table satisfying ``predicate`` (all, without one), cut
        down to ``columns`` if given, or, with ``partial`` — ``(group_by,
        aggregates)`` — aggregated, one row per group: one :class:`HeapRead`
        of this table's heap."""
        return HeapRead(self._stored(table), columns, predicate, partial).table()

    def partitions_read(self, table: str, predicate: Expression | None = None
                        ) -> int | None:
        """How many of a partitioned table's partitions ``predicate`` allows a
        read of: those every leading ``=`` / ``IN`` conjunct on the shard key
        names (all, without one); ``None`` for a table that is not partitioned.
        Read only for a record's ``details["shards"]`` (shim: PR A deletes it
        with the suite probe that reads it)."""
        stored = self._stored(table)
        if stored.heap.partitioning is None:
            return None
        key, count = stored.heap.partitioning
        allowed = set(range(count))
        if predicate is not None:
            for position, op, values in leading_checks(predicate, stored.schema)[0]:
                if position == key and op[0] == "=":
                    allowed &= set().union(*(partitions_equal_to(v, count) for v in values))
        return len(allowed)

    def has_index(self, table: str, column: str) -> bool:
        """Whether an equality-capable index exists on ``table.column``.

        The compiler's pushdown pass consults this to turn a scan with an
        absorbed equality predicate into an ``index_seek``.
        """
        try:
            stored = self._stored(table)
        except StorageError:
            return False
        return column in stored.hash_indexes or column in stored.sorted_indexes

    def index_lookup(self, table: str, column: str, value: Any,
                     columns: Sequence[str] | None = None,
                     predicate: Expression | None = None) -> Table:
        """Equality lookup through an index (hash preferred, sorted fallback);
        the rows found are filtered by ``predicate`` and cut down to ``columns``
        in one generated pass, as :meth:`scan`'s are."""
        stored = self._stored(table)
        schema = stored.schema if columns is None else stored.schema.project(columns)
        if value is None and (column in stored.hash_indexes
                              or column in stored.sorted_indexes):
            rids = []  # ``= None`` holds for no row, as a scan's filter says
        elif column in stored.hash_indexes:
            rids = stored.hash_indexes[column].lookup(value)
        elif column in stored.sorted_indexes:
            rids = stored.sorted_indexes[column].lookup(value)
        else:
            raise StorageError(f"no index on {table}.{column}")
        rows = stored.heap.fetch_many(rids)
        if rows and (predicate is not None or columns is not None):
            rows = kernels.select(stored.schema, predicate, columns)((rows,))
        return Table.wrap(schema, rows)

    def range_lookup(self, table: str, column: str, low: Any = None,
                     high: Any = None) -> Table:
        """Range lookup through a sorted index."""
        stored = self._stored(table)
        if column not in stored.sorted_indexes:
            raise StorageError(f"no sorted index on {table}.{column}")
        rows = stored.heap.fetch_many(list(stored.sorted_indexes[column].range(low, high)))
        return Table.wrap(stored.schema, rows)

    def top_k(self, table: str, by: str, k: int, *, descending: bool = True) -> Table:
        """Top-k rows of a table by one column."""
        stored = self._stored(table)
        scan = TableScan(Table.wrap(stored.schema, stored.heap.select()[0]))
        return TopK(scan, by, k, descending=descending).to_table()

    def _stored(self, name: str) -> StoredTable:
        try:
            return self._tables[name]
        except KeyError as exc:
            raise StorageError(f"table {name!r} does not exist") from exc
