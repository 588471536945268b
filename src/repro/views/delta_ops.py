"""Stateful delta operators: the lowered form of a view's dataflow tree.

Each operator consumes one Z-set delta per input and emits the Z-set delta
of its output — the DBSP "lifted" form of the corresponding batch operator:

* ``filter``/``project`` are *linear*: the output delta is just the operator
  applied to the input delta, no state needed.
* inner ``join`` is *bilinear*: ``δ(A ⋈ B) = δA ⋈ B ∪ A' ⋈ δB`` (with
  ``A' = A + δA``, which folds the ``δA ⋈ δB`` cross term in); both sides'
  key-indexed Z-sets are maintained as state.
* group ``aggregate`` keeps per-group accumulators, folded at the rows'
  weights by a generated loop with any filters and projects right below it
  fused in.  ``sum``/``count``/``avg`` are fully delta-composable;
  ``min``/``max`` keep a per-group counted value multiset and recompute
  *only the touched groups* — O(group) not O(base).
* ``sort``/``limit``/``top_k`` and non-inner joins are not delta-composable
  at all; :class:`DeltaRecompute` maintains the operator's input Z-set and
  recomputes the full (small, post-aggregation) output on change, emitting
  the output *diff* so downstream operators stay incremental.

Operators are positional and plan-typed like the physical operators they
lift (:mod:`repro.stores.relational.operators`): on its first application —
the seed pass — each one *binds* by building that operator over empty scans
of its input deltas' schemas and keeping its output ``schema`` (and a join's
readers); the rest it takes from the generator that operator's loop comes
from, so names resolve and results are typed in one place for both routes
(the differential tests assert refresh equals recompute, rows and schema).
"""

from __future__ import annotations

import abc
from itertools import chain, groupby
from typing import Any, Mapping, Sequence

from repro.datamodel.schema import Schema
from repro.datamodel.table import Row, Table
from repro.stores.changelog import PageEntry
from repro.stores.relational.expressions import and_
from repro.stores.relational.operators import (
    RUN,
    PhysicalOperator,
    TableScan,
    VectorFold,
    build_operator,
    vector_fold,
    weighted_aggregate_kernel,
)
from repro.views.zset import ZSet


class DeltaOperator(abc.ABC):
    """One lifted operator: Z-set deltas in, Z-set delta out (stateful)."""

    #: Layout of the output deltas; ``None`` until the first application.
    schema: Schema | None = None

    def __init__(self, stages: Sequence[tuple[str, Mapping[str, Any]]]) -> None:
        if not stages:
            raise ValueError("a delta operator lifts at least one stage")
        #: The ``(kind, params)`` physical steps lifted, bottom-most first:
        #: one, except for :class:`DeltaRecompute`.
        self.stages = [(kind, dict(params)) for kind, params in stages]

    def _physical(self, *tables: Table) -> PhysicalOperator:
        """The lifted physical operator (chain) over ``tables``."""
        (kind, params), *upper = self.stages
        operator = build_operator(kind, params, *map(TableScan, tables))
        for kind, params in upper:
            operator = build_operator(kind, params, operator)
        return operator

    def apply(self, *deltas: ZSet) -> ZSet:
        """Advance the operator's state by the input deltas; returns δout."""
        if self.schema is None:
            schemas = [delta.schema for delta in deltas]
            physical = self._physical(*map(Table.empty, schemas))
            self._bind(physical, *schemas)
            self.schema = physical.schema
        return self._apply(*deltas)

    @abc.abstractmethod
    def _bind(self, physical: Any, *schemas: Schema) -> None:
        """Keep what ``physical`` — the lifted operator built over empty
        inputs of ``schemas`` — resolved: its compiled readers."""

    @abc.abstractmethod
    def _apply(self, *deltas: ZSet) -> ZSet:
        """:meth:`apply` once bound."""


class DeltaFilter(DeltaOperator):
    """Linear: ``δout = σ(δin)``."""

    def _bind(self, physical: Any, *schemas: Schema) -> None:
        ((_, params),) = self.stages
        self._test = params["predicate"].compile(schemas[0])

    def _apply(self, *deltas: ZSet) -> ZSet:
        (delta,) = deltas
        return delta.select(self._test)


class DeltaProject(DeltaOperator):
    """Linear (bag projection): ``δout = π(δin)``; weights merge on collision."""

    def _bind(self, physical: Any, *schemas: Schema) -> None:
        self._pick = physical.pick

    def _apply(self, *deltas: ZSet) -> ZSet:
        (delta,) = deltas
        out, pick = ZSet(self.schema), self._pick
        for row, weight in delta.items():
            out.add(pick(row), weight)
        return out


class DeltaJoin(DeltaOperator):
    """Bilinear inner equi-join over maintained key-indexed Z-sets.

    Output rows are laid out as :class:`HashJoin`'s: the left row, then the
    right row's columns the left side lacks — so the right side's state only
    keeps those (``extra``) columns.  Rows with NULL keys never match.
    """

    def _bind(self, physical: Any, *schemas: Schema) -> None:
        self._left_key, self._right_key = physical.left_key, physical.right_key
        self._extra = physical.extra
        #: key value -> {left row | right extra columns: weight}
        self._left: dict[Any, dict[Row, int]] = {}
        self._right: dict[Any, dict[Row, int]] = {}

    @staticmethod
    def _absorb(index: dict[Any, dict[Row, int]], key: Any,
                row: Row, weight: int) -> None:
        bucket = index.setdefault(key, {})
        total = bucket.get(row, 0) + weight
        if total == 0:
            bucket.pop(row, None)
            if not bucket:
                index.pop(key, None)
        else:
            bucket[row] = total

    def _apply(self, *deltas: ZSet) -> ZSet:
        delta_left, delta_right = deltas
        out = ZSet(self.schema)
        # δA ⋈ B (old right state)
        for row, weight in delta_left.items():
            key = self._left_key(row)
            if key is None:
                continue
            for extra, right_weight in self._right.get(key, {}).items():
                out.add(row + extra, weight * right_weight)
            self._absorb(self._left, key, row, weight)
        # A' ⋈ δB (left state already advanced: covers the δA ⋈ δB term)
        for row, weight in delta_right.items():
            key = self._right_key(row)
            if key is None:
                continue
            extra = self._extra(row)
            for left_row, left_weight in self._left.get(key, {}).items():
                out.add(left_row + extra, left_weight * weight)
            self._absorb(self._right, key, extra, weight)
        return out


class DeltaAggregate(DeltaOperator):
    """Group-by aggregation over per-group accumulators, folded at each row's
    weight by one generated loop (:func:`weighted_aggregate_kernel`) into
    which the run of filters and projects right below it is fused.

    Emits ``(old_output_row, -1), (new_output_row, +1)`` for every touched
    group; a group whose total weight reaches zero only retracts.  With no
    grouping columns the single global group always exists (aggregates over
    an empty input still produce one row, like ``GroupByAggregate``).
    """

    def _bind(self, physical: Any, *schemas: Schema) -> None:
        *below, (_, params) = self.stages
        group_by = tuple(params.get("group_by") or ())
        aggregates = tuple(params.get("aggregates") or ())
        self._fold, self._row, self._counts = weighted_aggregate_kernel(
            schemas[0], below, group_by, aggregates)
        self._grouped = bool(group_by)
        #: group key -> its accumulators, and its last emitted output row.
        self._groups: dict[Any, list] = {}
        self._rows: dict[Any, Row] = {}
        # Whole pages fold as columns under filters only, reading only names
        # the delta has (a page row is a base row).
        tests = [params["predicate"] for kind, params in below if kind == "filter"]
        names = {*group_by, *(spec.column for spec in aggregates if spec.column)}
        names = names.union(*(test.referenced_columns() for test in tests))
        self._columnar = (group_by, aggregates, and_(*tests) if tests else None) \
            if len(tests) == len(below) and names <= set(schemas[0].names) else None
        self._vector: VectorFold | None | bool = None  # built for the first pages

    def _apply(self, *deltas: ZSet) -> ZSet:
        (delta,) = deltas
        groups, rows, touched = self._groups, self._rows, {}
        if delta.pages is not None and self._vector is None:
            self._vector = bool(self._columnar) and vector_fold(delta.pages[0], *self._columnar)
        if delta.pages is None or not self._vector:
            self._fold((delta.items(),), groups, touched)
        else:
            self._fold_pages(delta, self._vector, groups, touched)
        out: dict[Row, int] = {}
        for key, a in touched.items():
            for i in self._counts:
                if a[i] < 0:
                    raise ValueError(
                        f"group {key!r} reached negative multiplicity; "
                        f"delta state diverged from the base data"
                    )
            before, row = rows.pop(key, None), None
            if a[0] or not self._grouped:
                row = rows[key] = self._row(key, a)
            else:
                del groups[key]
            # Rows of different groups differ in their key; a group's
            # unchanged row would retract and re-add, which sums to nothing.
            if row != before:
                if before is not None:
                    out[before] = -1
                if row is not None:
                    out[row] = 1
        return ZSet(self.schema, out)

    def _fold_pages(self, delta: ZSet, vector: VectorFold, groups: dict,
                    touched: dict) -> None:
        """Fold ``delta`` in order: rows through the row loop, each run of whole
        pages of one weight through ``vector``, and what it declines as rows."""
        fold, pick = self._fold, delta.pages[1] or (lambda row: row)
        pending: list[tuple[Row, int]] = []
        for weight, run in groupby(delta.parts(),
                                   lambda pair: type(pair[0]) is PageEntry and pair[1]):
            if weight is False:  # row entries
                pending.extend(run)
                continue
            pages = [key.page for key, _ in run]
            for part, columns in chain.from_iterable(
                    vector.runs(pages[at:at + RUN]) for at in range(0, len(pages), RUN)):
                if columns is not None:
                    fold((pending,), groups, touched)  # the first makes the global group
                    pending = []
                    if vector.fold(part, columns, groups, weight, touched):
                        continue
                pending.extend((pick(row), weight) for page in part for row in page.rows)
        fold((pending,), groups, touched)


class DeltaRecompute(DeltaOperator):
    """Bounded-recompute fallback for operators with no delta form.

    Maintains each input's full Z-set and re-executes the underlying physical
    operator *chain* over the expanded rows when any delta arrives, emitting
    the output diff.  Used for ``sort``/``limit``/``top_k`` (whose outputs
    are order- or cutoff-sensitive) and non-inner joins; these typically sit
    at the top of a view, over already-aggregated (small) inputs, so the
    recompute is bounded by the operator's input, not the base tables.

    ``stages`` composes contiguous order-sensitive operators into **one**
    recompute: ``.sort(by).limit(n)`` must re-run as a unit, because the
    sort's ordering would be destroyed at a Z-set boundary between two
    separate recompute operators and the limit would cut arbitrary rows.
    """

    #: Kinds whose recomputed output is meaningfully ordered; a view rooted
    #: on one of these materializes the operator's row order verbatim.
    ORDERED_KINDS = frozenset({"sort", "top_k", "limit"})

    @property
    def kind(self) -> str:
        """The top-most (output-shaping) stage's kind."""
        return self.stages[-1][0]

    def _bind(self, physical: Any, *schemas: Schema) -> None:
        self._inputs = [ZSet(schema) for schema in schemas]
        self._last_output = ZSet(physical.schema)
        #: The most recent recomputed rows, in operator order.
        self.ordered_rows: list[Row] = []

    def _apply(self, *deltas: ZSet) -> ZSet:
        for state, delta in zip(self._inputs, deltas):
            state.update(delta)
        if all(delta.is_empty for delta in deltas):
            return ZSet(self.schema)
        output = self._physical(*(Table.wrap(state.schema, state.to_rows())
                                  for state in self._inputs)).to_table()
        self.ordered_rows = output.rows
        new_output = ZSet.from_table(output)
        diff = ZSet.diff(new_output, self._last_output)
        self._last_output = new_output
        return diff
