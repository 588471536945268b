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
from itertools import chain, groupby
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.datamodel.schema import Schema
from repro.datamodel.table import Row, Table
from repro.exceptions import StorageError
from repro.stores.base import DataModel, Engine
from repro.stores.changelog import table_scope
from repro.stores.relational import kernels
from repro.stores.relational.expressions import Expression
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
from repro.stores.relational.sql import lower_select, parse_select
from repro.stores.relational.storage import HeapStorage


class StoredTable:
    """A table registered in the engine: heap storage plus its indexes."""

    def __init__(self, name: str, schema: Schema, page_capacity: int = 256) -> None:
        self.name = name
        self.schema = schema
        self.heap = HeapStorage(schema, page_capacity)
        self.hash_indexes: dict[str, HashIndex] = {}
        self.sorted_indexes: dict[str, SortedIndex] = {}

    def insert_each(self, rows: Iterable[Sequence[Any]], *,
                    validate: bool = False) -> Iterator[Row]:
        """Insert rows in order, yielding each as a tuple once it is in the
        heap and every index (a caller that sees this fail knows what landed)."""
        keyed = [(self.schema.index_of(column), index)
                 for indexes in (self.hash_indexes, self.sorted_indexes)
                 for column, index in indexes.items()]
        insert = self.heap.insert
        for row in rows:
            row_t = tuple(row)
            rid = insert(row_t, validate=validate)
            for position, index in keyed:
                index.insert(row_t[position], rid)
            yield row_t

    def build_index(self, column: str, kind: type) -> HashIndex | SortedIndex:
        """A ``kind`` index over ``column``, loaded from the current heap."""
        position = self.schema.index_of(column)
        index = kind(column)
        index.bulk_load((row[position], rid)
                        for rid, row in self.heap.scan_with_rids())
        return index

    def rewritten(self, matches: Expression | Callable[[Row], Any],
                  patch: Callable[[Row], Row] | None = None
                  ) -> tuple["StoredTable", list[Row], list[Row]]:
        """The table a delete (no ``patch``) or an update leaves, beside this one.

        The one primitive behind ``delete_rows``, ``update_rows`` and their
        WAL replay.  Pages are shared as :meth:`HeapStorage.rewrite` says and
        this table is not touched, so a reader holding it keeps resolving
        every row id of every index it holds.  An update keeps row ids: an
        index none of whose keys changed is copied, not reloaded; an index
        whose keys did change — after a delete, where row ids move, every
        index — is loaded from the new heap.  Returns the table (this one if
        nothing matched), matched rows and replacements.
        """
        heap, matched, patched, _, _ = self.heap.rewrite(matches, patch)
        if not matched:
            return self, matched, patched
        sibling = StoredTable(self.name, self.schema, heap.page_capacity)
        sibling.heap = heap
        for ours, theirs in ((self.hash_indexes, sibling.hash_indexes),
                             (self.sorted_indexes, sibling.sorted_indexes)):
            for column, index in ours.items():
                position = self.schema.index_of(column)
                if patch is not None and all(
                        old[position] == new[position]
                        for old, new in zip(matched, patched)):
                    theirs[column] = index.copy()
                else:
                    theirs[column] = sibling.build_index(column, type(index))
        return sibling, matched, patched

    def statistics(self) -> dict[str, Any]:
        """Table statistics for the catalog and cost models."""
        stats = self.heap.statistics()
        stats["hash_indexes"] = sorted(self.hash_indexes)
        stats["sorted_indexes"] = sorted(self.sorted_indexes)
        return stats


class RelationalEngine(Engine):
    """A single-node relational engine with SQL, indexes and join algorithms."""

    data_model = DataModel.RELATIONAL

    def __init__(self, name: str = "relational") -> None:
        super().__init__(name)
        self._tables: dict[str, StoredTable] = {}
        #: Serializes mutations against each other and against
        #: :meth:`snapshot_scan`; plain reads stay lock-free.
        self._write_lock = threading.RLock()

    # -- DDL ---------------------------------------------------------------------

    def create_table(self, name: str, schema: Schema, *, page_capacity: int = 256) -> None:
        """Create an empty table."""
        with self._write_lock:
            if name in self._tables:
                raise StorageError(f"table {name!r} already exists")
            self._tables[name] = StoredTable(name, schema, page_capacity)
            batch = self.mark_data_changed(
                table_scope(name), entries=(), notify=False,
                op=("create_table", {"table": name, "schema": schema,
                                     "page_capacity": page_capacity}))
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
        """Create a secondary index on an existing table column."""
        # Under the write lock: no insert grows the heap while the index loads,
        # no update retires the table the index is about to be attached to.
        with self._write_lock:
            stored = self._stored(table)
            if column not in stored.schema:
                raise StorageError(f"table {table!r} has no column {column!r}")
            if kind == "hash":
                stored.hash_indexes[column] = stored.build_index(column, HashIndex)
            elif kind == "sorted":
                stored.sorted_indexes[column] = stored.build_index(column, SortedIndex)
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
        """Insert positional rows into a table; returns the count inserted."""
        batch = None
        try:
            with self._write_lock:
                stored = self._stored(table)
                inserted: list[tuple] = []
                try:
                    for row in stored.insert_each(rows, validate=validate):
                        inserted.append(row)
                except BaseException:
                    if inserted:
                        # Rows landed in the heap before the failure: the
                        # mutation must not go unrecorded (pinned snapshots
                        # would replay pre-insert data, views would diverge
                        # undetectably).  A gap makes consumers resync.  The
                        # op carries the landed rows so durable replay can
                        # reproduce the exact torn heap state.
                        batch = self.mark_data_changed(
                            table_scope(table), notify=False,
                            op=("insert_torn", {"table": table,
                                                "rows": list(inserted)}))
                    raise
                if inserted:
                    batch = self.mark_data_changed(
                        table_scope(table),
                        entries=[(row, 1) for row in inserted], notify=False,
                        op=("insert", {"table": table}))
        finally:
            if batch is not None:
                self.changelog.notify_batch(batch)
        return len(inserted)

    def delete_rows(self, table: str, predicate: Expression) -> list[tuple]:
        """Delete every row satisfying ``predicate``; returns the deleted rows.

        Pages holding a deleted row are copied without it, all others are
        shared with the table readers may still hold (see
        :meth:`StoredTable.rewritten`); the deletions land in the changelog
        as weight ``-1`` entries.
        """
        batch = None
        with self._write_lock:
            deleted, _ = self._rewrite(table, predicate)
            if deleted:
                batch = self.mark_data_changed(
                    table_scope(table),
                    entries=[(row, -1) for row in deleted], notify=False,
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
            schema = self._stored(table).schema
            for column in updates:
                if column not in schema:
                    raise StorageError(f"table {table!r} has no column {column!r}")
            # One generated tuple display per patched row, the new values bound.
            out = kernels.Source(schema)
            patch = out.kernel("patch", "row", "return (" + "".join(
                (out.constant(updates[name]) if name in updates else out.column(name))
                + "," for name in schema.names) + ")")
            olds, news = self._rewrite(table, predicate, patch)
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
                      ) -> tuple[Table, int, int]:
        """An atomic ``(scan, changelog head, scoped version)`` triple.

        Taken under the write lock, so every row in the snapshot is covered
        by a batch at or before the returned head — the consistency anchor
        materialized-view resyncs need (a plain scan racing a writer could
        contain a row whose batch lands after the scan, which a delta
        consumer would then double-apply).
        """
        with self._write_lock:
            return (self.scan(table, columns), self.changelog.latest_seq,
                    self.data_version_for(table_scope(table)))

    def _rewrite(self, table: str, matches: Expression | Callable[[Row], Any],
                 patch: Callable[[Row], Row] | None = None
                 ) -> tuple[list[Row], list[Row]]:
        """Run a delete or update (:meth:`StoredTable.rewritten`) and publish
        it in one step; returns matched rows and replacements.  Callers hold
        the write lock; readers take ``self._tables[name]`` once, so they see
        the table before the statement or after it.
        """
        sibling, matched, patched = self._stored(table).rewritten(matches, patch)
        self._tables[table] = sibling
        return matched, patched

    def insert_dicts(self, table: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert dictionary rows into a table."""
        stored = self._stored(table)
        names = stored.schema.names
        return self.insert(table, (tuple(row.get(n) for n in names) for row in rows))

    def load_table(self, name: str, table: Table, *, page_capacity: int = 256) -> None:
        """Create ``name`` from an in-memory :class:`Table` and load its rows."""
        self.create_table(name, table.schema, page_capacity=page_capacity)
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
        down to ``columns`` if given: filtered and projected page by page in one
        pass (:meth:`HeapStorage.select`).

        With ``partial`` — ``(group_by, aggregates)`` — the same pass folds
        the rows into one row per group instead, groups in first-seen order:
        the partials an aggregate fused into this scan combines.  The rows are
        read before any projection, so ``columns`` only has to exist.  Sealed
        pages fold with numpy where it reads them exactly (``VectorFold``),
        the rest with the row kernel (``aggregate_kernel``), into one dict:
        the rows are the row kernel's, each group once, in first-seen order,
        so ``combine_partial_aggregates`` only finishes this one part.
        """
        stored = self._stored(table)
        schema = stored.schema if columns is None else stored.schema.project(columns)
        if partial is None:
            return Table.wrap(schema, stored.heap.select(predicate, columns)[0])
        candidates, pages = stored.heap.candidates(predicate)
        group_by, aggregates = tuple(partial[0]), tuple(partial[1])
        fold, schema = aggregate_kernel(stored.schema, group_by, aggregates,
                                        predicate if pages else None)  # over no page, bind nothing
        vector = len(candidates) > 1 and vector_fold(stored.schema, group_by, aggregates,
                                                     predicate)
        groups: dict = {}
        chunks: list[list[Row]] = []
        # Up to RUN sealed pages of equal kinds fold as one run; the last page
        # may still change, so the row kernel folds it, last, into the rows.
        sealed = candidates[:-1] if vector else []
        for kinds, run in chain.from_iterable(groupby(sealed[at:at + RUN], vector.kinds)
                                              for at in range(0, len(sealed), RUN)):
            run = list(run)
            if kinds is not None:
                if chunks:
                    fold(chunks, groups)
                    chunks = []
                if vector.fold(run, groups):
                    continue
            chunks.extend(page.rows for page in run)
        chunks.extend(page.rows for page in candidates[len(sealed):])
        return Table.wrap(schema, fold(chunks, groups))

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
        if column in stored.hash_indexes:
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
