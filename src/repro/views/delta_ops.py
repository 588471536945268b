"""Stateful delta operators: the lowered form of a view's dataflow tree.

Each operator consumes one Z-set delta per input and emits the Z-set delta
of its output — the DBSP "lifted" form of the corresponding batch operator:

* ``filter``/``project`` are *linear*: the output delta is just the operator
  applied to the input delta, no state needed.
* inner ``join`` is *bilinear*: ``δ(A ⋈ B) = δA ⋈ B ∪ A' ⋈ δB`` (with
  ``A' = A + δA``, which folds the ``δA ⋈ δB`` cross term in); both sides'
  key-indexed Z-sets are maintained as state.
* group ``aggregate`` keeps per-group accumulators.  ``sum``/``count``/
  ``avg`` are fully delta-composable; ``min``/``max`` keep a per-group value
  multiset and recompute *only the touched groups* — the bounded-recompute
  fallback, O(group) not O(base).
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
from collections import Counter
from typing import Any, Mapping, Sequence

from repro.datamodel.schema import Schema
from repro.datamodel.table import Row, Table
from repro.stores.relational.operators import (
    PhysicalOperator,
    TableScan,
    build_operator,
    column_reader,
    tuple_reader,
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


class _GroupState:
    """Accumulators for one group across every aggregate of the operator."""

    __slots__ = ("weight", "nonnull", "sums", "values")

    def __init__(self, n_specs: int) -> None:
        #: Total row multiplicity of the group.
        self.weight = 0
        #: Per spec: multiplicity of rows whose aggregated column is non-NULL.
        self.nonnull = [0] * n_specs
        #: Per spec: weighted sum of non-NULL values (sum/avg).
        self.sums: list[Any] = [0] * n_specs
        #: Per spec: value multiset for the bounded min/max recompute.
        self.values: list[Counter] = [Counter() for _ in range(n_specs)]


class DeltaAggregate(DeltaOperator):
    """Group-by aggregation over per-group accumulators.

    Emits ``(old_output_row, -1), (new_output_row, +1)`` for every touched
    group; a group whose total weight reaches zero only retracts.  With no
    grouping columns the single global group always exists (aggregates over
    an empty input still produce one row, like ``GroupByAggregate``).
    """

    def _bind(self, physical: Any, *schemas: Schema) -> None:
        ((_, params),) = self.stages
        self._key = tuple_reader(schemas[0], params.get("group_by") or [])
        #: ``(function, row -> input value | None for count(*))`` per aggregate.
        self._inputs = [(spec.function, spec.column and column_reader(schemas[0], spec.column))
                        for spec in params.get("aggregates") or []]
        self._grouped = bool(params.get("group_by"))
        self._groups: dict[tuple, _GroupState] = {}
        #: Whether the global group's time-zero row was emitted yet.
        self._genesis_done = self._grouped

    def _apply(self, *deltas: ZSet) -> ZSet:
        (delta,) = deltas
        groups, key_of, inputs = self._groups, self._key, self._inputs
        #: touched group key -> its output row before this delta
        touched: dict[tuple, Row | None] = {}
        if not self._genesis_done:
            # First application (the seed pass, over an empty view state):
            # force the global group through so its row is emitted even when
            # the seed itself is empty — ``GroupByAggregate`` yields one row
            # for aggregates over zero input rows.
            touched[()] = None
            groups[()] = _GroupState(len(inputs))
            self._genesis_done = True
        for row, weight in delta.items():
            key = key_of(row)
            state = groups.get(key)
            if key not in touched:
                touched[key] = self._output_row(key, state)
            if state is None:
                state = groups[key] = _GroupState(len(inputs))
            state.weight += weight
            for i, (function, read) in enumerate(inputs):
                value = read(row) if read is not None else None
                if value is None:
                    continue
                state.nonnull[i] += weight
                if function in ("sum", "avg"):
                    state.sums[i] += value * weight
                elif function in ("min", "max"):
                    state.values[i][value] += weight
                    if state.values[i][value] == 0:
                        del state.values[i][value]
        out = ZSet(self.schema)
        for key, before in touched.items():
            state = groups[key]
            if state.weight < 0 or any(n < 0 for n in state.nonnull):
                raise ValueError(
                    f"group {key!r} reached negative multiplicity; "
                    f"delta state diverged from the base data"
                )
            if state.weight == 0 and self._grouped:
                del groups[key]
                state = None
            if before is not None:
                out.add(before, -1)
            if state is not None:
                out.add(self._output_row(key, state), 1)
        return out

    def _output_row(self, key: tuple, state: _GroupState | None) -> Row | None:
        """The group's current output row (``None`` when the group is absent)."""
        if state is None:
            return None
        return key + tuple(self._aggregate_value(state, i, function, read)
                           for i, (function, read) in enumerate(self._inputs))

    @staticmethod
    def _aggregate_value(state: _GroupState, i: int, function: str,
                         read: Any) -> Any:
        if function == "count":
            return state.weight if read is None else state.nonnull[i]
        if state.nonnull[i] == 0:
            return None  # sum/avg/min/max over zero non-NULL rows
        if function == "sum":
            return state.sums[i]
        if function == "avg":
            return state.sums[i] / state.nonnull[i]
        if function == "min":
            return min(state.values[i])
        return max(state.values[i])


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
