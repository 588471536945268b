"""The incremental compiler pass: dataflow trees to executable delta programs.

:func:`compile_incremental` walks a view's :class:`~repro.eide.dataflow`
expression tree and lowers every operator into its delta form
(:mod:`repro.views.delta_ops`).  Sources come in two flavours:

* a relational ``scan`` becomes a :class:`ChangelogSource` — a cursor into
  the engine's scoped changelog, pulling exactly the typed delta batches
  appended since the last refresh (cost proportional to the change);
* every other leaf read becomes a :class:`SnapshotDiffSource` — it watches
  the leaf's *scoped* data version and, only when that changed, re-reads the
  leaf and diffs against the previous snapshot.  The re-read is a one-node
  executor run, the only one a refresh makes.  The cost is O(that leaf), which keeps small side inputs (KV profiles, a
  timeseries summary) cheap next to a large relational base.

The lowered :class:`DeltaProgram` is a list of steps in topological order,
computed once; a refresh is one pass down it (:meth:`DeltaProgram.run`), on
the caller's thread, charged the wall time it takes — what the executor
charges any operator that runs in the middleware.  An aggregate takes the
filters and projects right below it into its own generated loop, so the
common ``scan → filter → aggregate`` view is a changelog pull and one
weighted fold.

A compiled program is untyped until its **seed pass**: the sources' first
(full) reads fix the schemas their deltas are laid out in, and each operator
binds to its inputs' schemas as the seed reaches it.  A source keeps that
schema for the life of the program; one that cannot (a schemaless leaf grew
a column) raises :class:`ResyncRequired`, like a changelog gap, and the view
compiles and seeds a fresh program.

Kinds outside filter/project/inner-join/aggregate (+ the bounded-recompute
set) make the view non-incremental: :func:`compile_incremental` returns
``None`` and the view falls back to full recomputation on every refresh.
"""

from __future__ import annotations

import bisect
import operator
from typing import Any, Callable, Sequence

from repro.catalog import Catalog
from repro.datamodel.schema import Schema
from repro.datamodel.table import Row, Table
from repro.eide.dataflow import DataflowNode, resolve_node_engine
from repro.exceptions import ExecutionError
from repro.ir.graph import IRGraph
from repro.ir.kinds import KINDS
from repro.ir.nodes import Operator
from repro.stores.changelog import PageEntry, PageParts, leaf_read_scope, table_scope
from repro.stores.base import DataModel
from repro.stores.relational.expressions import Expression
from repro.stores.relational.operators import tuple_reader
from repro.views.delta_ops import (
    DeltaAggregate,
    DeltaFilter,
    DeltaJoin,
    DeltaOperator,
    DeltaProject,
    DeltaRecompute,
)
from repro.views.zset import ZSet


class ResyncRequired(ExecutionError):
    """A source can no longer maintain its state from deltas (gap, truncation,
    or a leaf whose schema changed under the delta program bound to it)."""


class ChangelogSource:
    """Delta source over a relational table's scoped changelog.

    The source is its log's registered reader (:meth:`ChangeLog.register`):
    each cursor move registers the new position, so the log keeps exactly
    the batches past it, and a collected source holds nothing.
    """

    def __init__(self, engine_name: str, table: str,
                 columns: list[str] | None) -> None:
        self.engine_name = engine_name
        self.table = table
        self.columns = list(columns) if columns else None
        self.cursor = 0
        #: Bound by :meth:`resync` (the seed): the deltas' schema, and the
        #: reader cutting a logged full row down to ``columns``.  A table only
        #: changes shape through DDL, whose gap forces a rebuild that rebinds.
        self._schema: Schema | None = None
        self._pick: Callable[[Row], Row] | None = None
        self._base: Schema | None = None

    def pull(self, catalog: Catalog) -> ZSet:
        """The table's delta since the cursor; raises :class:`ResyncRequired`."""
        batches, complete, head = catalog.engine(self.engine_name).changelog.pull(
            self.cursor, table_scope(self.table))
        if not complete:
            raise ResyncRequired(
                f"changelog for {self.engine_name}.{self.table} has a gap or "
                f"fell out of retention past cursor {self.cursor}"
            )
        # One dict, summed and annihilated as ``ZSet.add`` would: a record
        # inserted and deleted in the window is gone before anything folds it.
        weights: dict[Row, int] = {}
        get, pick, pages = weights.get, self._pick, None
        chunks = [batch.parts for batch in batches]
        if PageParts in map(type, chunks):
            chunks, pick, pages = [self._paged(chunks)], None, (self._base, pick)
        for chunk in chunks:
            for record, weight in chunk:
                if pick is not None:
                    record = pick(record)
                total = get(record, 0) + weight
                if total:
                    weights[record] = total
                elif record in weights:
                    del weights[record]
        # Advance to the head even when nothing matched: a complete
        # scope-filtered read provably missed nothing, and a lagging cursor
        # would hold *other* scopes' batches until the caps trim past it.
        self._move(catalog, head)
        return ZSet(self._schema, weights, pages)

    def _paged(self, chunks: list[tuple]) -> list[tuple[Any, int]]:
        """The parts of ``chunks`` as pairs cut down to ``columns``: a page entry
        as its own key where :func:`_apart` proves its rows are records no
        other entry holds, else expanded in place, so summing and annihilation
        stay exact."""
        parts = [part for chunk in chunks for part in chunk]
        pages = [part for part in parts if type(part) is PageEntry]
        rows = [part[0] for part in parts if type(part) is not PageEntry]
        positions = list(map(self._base.index_of, self.columns or self._base.names))
        kept = {id(part) for part, apart in zip(pages, _apart(
            [part.page for part in pages], rows, positions)) if apart}
        pick = self._pick or (lambda row: row)
        return [pair for part in parts for pair in (
            [(part, part.weight)] if id(part) in kept
            else [(pick(row), part.weight) for row in part.page.rows]
            if type(part) is PageEntry else [(pick(part[0]), part[1])])]

    def _move(self, catalog: Catalog, head: int) -> None:
        """Advance the cursor to ``head``, releasing what only it held."""
        self.cursor = catalog.engine(self.engine_name).changelog.register(
            self, head)

    #: Resync re-read attempts before giving up on a quiescent snapshot.
    RESYNC_ATTEMPTS = 8

    def resync(self, catalog: Catalog) -> ZSet:
        """Reposition the cursor at the log head and re-read the full base.

        Engines whose writes and log appends share a lock expose
        ``snapshot_scan`` (``RelationalEngine`` does), which hands back an
        atomic ``(data, head)`` pair.  Bare engines have no write lock at
        all, so the read retries until no batch landed *during* the scan:
        accepting a dirty snapshot would either replay a write the scan
        already contains (double-count) or drop one it missed.  Persistent
        write churn makes the resync fail loudly instead of corrupting
        state.
        """
        engine = catalog.engine(self.engine_name)
        log = engine.changelog
        snapshot_scan = getattr(engine, "snapshot_scan", None)
        if callable(snapshot_scan):
            # Held from the head before the snapshot: no batch past the
            # snapshot's own head is dropped before the cursor lands on it.
            log.register(self)
            table, head = snapshot_scan(self.table, self.columns)
            self.cursor = log.register(self, head)
            return self._bound(engine, table)
        for _ in range(self.RESYNC_ATTEMPTS):
            before = log.register(self)
            table = engine.scan(self.table, self.columns)
            if log.latest_seq == before:
                self.cursor = before
                return self._bound(engine, table)
        raise ResyncRequired(
            f"could not capture a quiescent snapshot of "
            f"{self.engine_name}.{self.table}: writes kept landing during "
            f"{self.RESYNC_ATTEMPTS} re-read attempts"
        )

    def _bound(self, engine: Any, snapshot: Table) -> ZSet:
        """Bind the delta layout to a resync's snapshot; returns it as a Z-set."""
        self._schema = snapshot.schema
        self._base = engine.table_schema(self.table)
        self._pick = tuple_reader(self._base, self.columns) if self.columns else None
        return ZSet.from_table(snapshot)

    def changed(self, catalog: Catalog) -> bool:
        """Whether the table's log holds a batch (or a gap) past the cursor.

        A probe that finds only *other* scopes' batches advances the cursor
        to the head as a side effect (a complete scope-filtered read missed
        nothing) — otherwise a view refreshed only when its own table
        changes would hold unrelated churn until the caps trim the log past
        its cursor, forcing a spurious full resync.
        """
        batches, complete, head = catalog.engine(self.engine_name).changelog.pull(
            self.cursor, table_scope(self.table))
        if complete and not batches:
            if head != self.cursor:
                self._move(catalog, head)
            return False
        return True

    def describe(self) -> str:
        return f"changelog({self.engine_name}.{self.table})"


def _apart(pages: list[Any], rows: list[Row], positions: Sequence[int]) -> list[bool]:
    """For each of ``pages``, whether its rows provably differ from each other,
    from the other pages' rows and from ``rows``: read off the first of
    ``positions`` where every page's cells are of one ``page.kind`` (no
    ``None`` or NaN) and no two pages' bounds meet.  A page is not apart if
    a row's cell there falls in its bounds (a bisection of the sorted
    bounds) or a cell repeats on it; with no such column, none is."""
    for position in positions:
        if None in [page.kind(position) for page in pages]:
            continue
        bounds = [page.bounds(position) for page in pages]
        try:
            order = sorted(range(len(pages)), key=lambda i: bounds[i][0])
            lows, highs = [bounds[i][0] for i in order], [bounds[i][1] for i in order]
            if not all(map(operator.lt, highs, lows[1:])):
                continue
            hit = {order[k] for cell in map(operator.itemgetter(position), rows)
                   if cell is not None and cell == cell  # else equal to no page row
                   for k in (bisect.bisect_right(lows, cell) - 1,)
                   if k >= 0 and cell <= highs[k]}
        except TypeError:
            continue
        cells = operator.itemgetter(position)
        return [i not in hit and len(set(map(cells, page.rows))) == len(page.rows)
                for i, page in enumerate(pages)]
    return [False] * len(pages)


class SnapshotDiffSource:
    """Delta source that re-reads a non-relational leaf and diffs snapshots.

    Only re-reads when the leaf's *scoped* data version moved, so an
    untouched side input costs nothing per refresh.  The operators above are
    bound to the schema of the seed's read; a re-read typed differently (a
    schemaless leaf grew a column) raises :class:`ResyncRequired`.
    """

    def __init__(self, kind: str, params: dict[str, Any], engine_name: str) -> None:
        self.kind = kind
        self.params = dict(params)
        self.engine_name = engine_name
        self.scope = leaf_read_scope(kind, params)
        self._version: int | None = None
        self._previous: ZSet | None = None

    def pull(self, catalog: Catalog) -> ZSet:
        engine = catalog.engine(self.engine_name)
        version = engine.data_version_for(self.scope)
        previous = self._previous
        if previous is not None and version == self._version:
            return ZSet(previous.schema)
        snapshot = self._read(catalog)
        if previous is None:
            previous = ZSet(snapshot.schema)
        elif snapshot.schema != previous.schema:
            raise ResyncRequired(
                f"{self.describe()} now reads {snapshot.schema!r}; the delta "
                f"program is bound to {previous.schema!r}"
            )
        self._previous = snapshot
        self._version = version
        return ZSet.diff(snapshot, previous)

    def resync(self, catalog: Catalog) -> ZSet:
        """Forget the previous snapshot and re-read from scratch."""
        self._previous = None
        return self.pull(catalog)

    def changed(self, catalog: Catalog) -> bool:
        engine = catalog.engine(self.engine_name)
        return engine.data_version_for(self.scope) != self._version

    def _read(self, catalog: Catalog) -> ZSet:
        """Execute the leaf as a one-node program through the executor, so
        it reads exactly as the leaf of a normal program would."""
        from repro.middleware.executor import Executor

        graph = IRGraph(f"view-source::{self.kind}")
        node = graph.add(Operator(self.kind, dict(self.params), [],
                                  self.engine_name))
        graph.mark_output(node.op_id)
        outputs, _ = Executor(catalog).execute(
            graph, mode="view_maintenance")
        value = next(iter(outputs.values()))
        if isinstance(value, Table):
            return ZSet.from_table(value)
        raise ResyncRequired(
            f"leaf {self.kind!r} on {self.engine_name!r} produced "
            f"{type(value).__name__}, not rows; it cannot be maintained"
        )

    def describe(self) -> str:
        return f"snapshot-diff({self.engine_name}:{self.kind})"


Source = ChangelogSource | SnapshotDiffSource

#: One step of a delta program: a source and ``()``, or an operator and the
#: positions of the steps it reads (at least one).
Step = tuple[Source | DeltaOperator, tuple[int, ...]]


class DeltaProgram:
    """A compiled delta pipeline: its steps in topological order, the root last."""

    def __init__(self, name: str, catalog: Catalog, steps: list[Step]) -> None:
        self.name = name
        self.catalog = catalog
        self.steps = steps
        self.sources = [step for step, inputs in steps if not inputs]

    def run(self, seed: bool) -> tuple[ZSet, int]:
        """One pass: ``(the root's output delta, rows the sources pulled)``.

        With ``seed`` the sources read the *full* base (positioning cursors at
        the log head) instead of pulling deltas — the seeding pass after a
        (re)build, whose output delta IS the full view content.
        """
        catalog, values, pulled = self.catalog, [], 0
        for step, inputs in self.steps:
            if inputs:
                values.append(step.apply(*[values[i] for i in inputs]))
                continue
            delta = step.resync(catalog) if seed else step.pull(catalog)
            pulled += delta.total_weight
            values.append(delta)
        return values[-1], pulled

    def ordered_rows(self) -> list[Row] | None:
        """The root's latest output in operator order; ``None`` unless the
        root recomputes an ordered result (sort/top-k/limit)."""
        root = self.steps[-1][0]
        if isinstance(root, DeltaRecompute) and root.kind in root.ORDERED_KINDS:
            return root.ordered_rows
        return None

    def any_source_changed(self) -> bool:
        """Cheap staleness probe: did any source move past its cursor?"""
        return any(source.changed(self.catalog) for source in self.sources)

    def release(self) -> None:
        """Unregister the changelog cursors, once the program is replaced."""
        for source in self.sources:
            if isinstance(source, ChangelogSource):
                self.catalog.engine(source.engine_name).changelog.release(source)


def compile_incremental(name: str, root: DataflowNode,
                        catalog: Catalog) -> DeltaProgram | None:
    """Lower a view's dataflow tree to a delta program, or ``None``.

    ``None`` means the tree contains an operator with no delta form (ML
    heads, UDFs, unions, graph traversals as interior nodes, ...); the view
    then refreshes by full recomputation only.
    """
    steps: list[Step] = []
    lowered: dict[int, int] = {}

    def lower(node: DataflowNode) -> int | None:
        if id(node) in lowered:
            return lowered[id(node)]
        step = _lower_uncached(node)
        if step is None:
            return None
        steps.append(step)
        lowered[id(node)] = len(steps) - 1
        return len(steps) - 1

    def _lower_uncached(node: DataflowNode) -> Step | None:
        if not node.inputs:
            engine = resolve_node_engine(node, catalog)
            source = None if engine is None else _source_for(node, engine, catalog)
            return None if source is None else (source, ())
        if node.kind in DeltaRecompute.ORDERED_KINDS:
            # A contiguous sort/limit/top_k run recomputes as ONE unit: the
            # ordering a sort establishes would not survive a Z-set
            # boundary, so a downstream limit would cut arbitrary rows.
            stages: list[tuple[str, dict[str, Any]]] = []
            current = node
            while (current.kind in DeltaRecompute.ORDERED_KINDS
                   and len(current.inputs) == 1):
                stages.append((current.kind, dict(current.params)))
                current = current.inputs[0]
            stages.reverse()
            for index, (kind, _) in enumerate(stages):
                if kind == "limit" and not any(
                        earlier in ("sort", "top_k")
                        for earlier, _ in stages[:index]):
                    # A limit means "the first n of the upstream ORDER", but
                    # only an ordering producer inside the same recompute
                    # unit can supply one — Z-sets are unordered, so a limit
                    # over a scan, an aggregate, or a sort separated by a
                    # linear operator would cut arbitrary rows.  Such views
                    # refresh by full recomputation instead.
                    return None
            delta_op: DeltaOperator | None = DeltaRecompute(stages)
            children: tuple[DataflowNode, ...] = (current,)
        else:
            delta_op, children = _operator_for(node)
        if delta_op is None:
            return None
        inputs = []
        for child in children:
            index = lower(child)
            if index is None:
                return None
            inputs.append(index)
        return delta_op, tuple(inputs)

    if lower(root) is None:
        return None
    return DeltaProgram(name, catalog, steps)


def _source_for(node: DataflowNode, engine_name: str,
                catalog: Catalog) -> Source | None:
    engine = catalog.engine(engine_name)
    if node.kind == "scan" and engine.data_model is DataModel.RELATIONAL:
        return ChangelogSource(engine_name, str(node.params["table"]),
                               node.params.get("columns"))
    if KINDS[node.kind].diffable:  # a tabular adapter output
        return SnapshotDiffSource(node.kind, node.params, engine_name)
    return None


#: Kinds with a delta form of their own (joins: inner only).
_LIFTED = {"filter": DeltaFilter, "project": DeltaProject, "join": DeltaJoin}
#: Kinds an aggregate right above them folds in its own loop.
_FUSED = ("filter", "project")


def _operator_for(node: DataflowNode
                  ) -> tuple[DeltaOperator | None, tuple[DataflowNode, ...]]:
    """The node's delta operator and the nodes it reads.  An aggregate takes
    the filters and projects right below it into its fold."""
    kind, params = node.kind, node.params
    if kind == "filter" and not isinstance(params.get("predicate"), Expression):
        return None, node.inputs
    if kind == "aggregate":
        stages, (child,) = [(kind, params)], node.inputs
        while child.kind in _FUSED and len(child.inputs) == 1 and (
                child.kind == "project"
                or isinstance(child.params.get("predicate"), Expression)):
            stages.insert(0, (child.kind, child.params))
            (child,) = child.inputs
        return DeltaAggregate(stages), (child,)
    lifted = _LIFTED.get(kind)
    if kind == "join" and params.get("how", "inner") != "inner":
        lifted = DeltaRecompute
    return (lifted([(kind, params)]) if lifted is not None else None), node.inputs
