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

Semantics deliberately mirror the relational engine's physical operators
(:mod:`repro.stores.relational.operators`) — the differential tests assert
refresh-equals-recompute across randomized mutation streams.
"""

from __future__ import annotations

import abc
from collections import Counter
from typing import Any, Sequence

from repro.stores.relational.expressions import Expression
from repro.stores.relational.operators import (
    AggregateSpec,
    TableScan,
    build_operator,
)
from repro.views.zset import ZSet, freeze_row, thaw_row


class DeltaOperator(abc.ABC):
    """One lifted operator: Z-set deltas in, Z-set delta out (stateful)."""

    @abc.abstractmethod
    def apply(self, *deltas: ZSet) -> ZSet:
        """Advance the operator's state by the input deltas; returns δout."""


class DeltaFilter(DeltaOperator):
    """Linear: ``δout = σ(δin)``."""

    def __init__(self, predicate: Expression) -> None:
        self.predicate = predicate
        self._test = predicate.compile()  # over thawed dict rows, by name

    def apply(self, *deltas: ZSet) -> ZSet:
        (delta,) = deltas
        out = ZSet()
        for frozen, weight in delta.items():
            if self._test(thaw_row(frozen)):
                out.add(frozen, weight)
        return out


class DeltaProject(DeltaOperator):
    """Linear (bag projection): ``δout = π(δin)``; weights merge on collision."""

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns = list(columns)

    def apply(self, *deltas: ZSet) -> ZSet:
        (delta,) = deltas
        out = ZSet()
        for frozen, weight in delta.items():
            row = thaw_row(frozen)
            projected = {name: row.get(name) for name in self.columns}
            out.add(freeze_row(projected), weight)
        return out


def _join_merge(left_row: dict[str, Any], right_row: dict[str, Any]) -> dict[str, Any]:
    """Merge join sides the way :class:`HashJoin` does (left columns win)."""
    merged = dict(left_row)
    for name, value in right_row.items():
        if name not in merged:
            merged[name] = value
    return merged


class DeltaJoin(DeltaOperator):
    """Bilinear inner equi-join over maintained key-indexed Z-sets."""

    def __init__(self, left_key: str, right_key: str) -> None:
        self.left_key = left_key
        self.right_key = right_key
        #: key value -> {frozen_row: weight}; rows with NULL keys are dropped
        #: on the way in, matching ``HashJoin``.
        self._left: dict[Any, dict[tuple, int]] = {}
        self._right: dict[Any, dict[tuple, int]] = {}

    @staticmethod
    def _absorb(index: dict[Any, dict[tuple, int]], key: Any,
                frozen: tuple, weight: int) -> None:
        bucket = index.setdefault(key, {})
        total = bucket.get(frozen, 0) + weight
        if total == 0:
            bucket.pop(frozen, None)
            if not bucket:
                index.pop(key, None)
        else:
            bucket[frozen] = total

    def apply(self, *deltas: ZSet) -> ZSet:
        delta_left, delta_right = deltas
        out = ZSet()
        # δA ⋈ B (old right state)
        for frozen, weight in delta_left.items():
            row = thaw_row(frozen)
            key = row.get(self.left_key)
            if key is None:
                continue
            for right_frozen, right_weight in self._right.get(key, {}).items():
                merged = _join_merge(row, thaw_row(right_frozen))
                out.add(freeze_row(merged), weight * right_weight)
            self._absorb(self._left, key, frozen, weight)
        # A' ⋈ δB (left state already advanced: covers the δA ⋈ δB term)
        for frozen, weight in delta_right.items():
            row = thaw_row(frozen)
            key = row.get(self.right_key)
            if key is None:
                continue
            for left_frozen, left_weight in self._left.get(key, {}).items():
                merged = _join_merge(thaw_row(left_frozen), row)
                out.add(freeze_row(merged), left_weight * weight)
            self._absorb(self._right, key, frozen, weight)
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

    def __init__(self, group_by: Sequence[str],
                 aggregates: Sequence[AggregateSpec]) -> None:
        self.group_by = list(group_by)
        self.specs = list(aggregates)
        self._groups: dict[tuple, _GroupState] = {}
        #: Whether the global group's time-zero row was emitted yet (global
        #: aggregates produce one row even over an empty input).
        self._genesis_done = bool(self.group_by)

    def apply(self, *deltas: ZSet) -> ZSet:
        (delta,) = deltas
        touched: dict[tuple, ZSet] = {}
        for frozen, weight in delta.items():
            row = thaw_row(frozen)
            key = tuple(row.get(name) for name in self.group_by)
            if key not in touched:
                touched[key] = ZSet()
            touched[key].add(frozen, weight)
        if not self._genesis_done:
            # First application (the seed pass, over an empty view state):
            # force the global group through so its row is emitted even when
            # the seed itself is empty — ``GroupByAggregate`` yields one row
            # for aggregates over zero input rows.
            touched.setdefault((), ZSet())
            self._genesis_done = True
        out = ZSet()
        for key, group_delta in touched.items():
            before = self._output_row(key)
            self._advance(key, group_delta)
            after = self._output_row(key)
            if before is not None:
                out.add(freeze_row(before), -1)
            if after is not None:
                out.add(freeze_row(after), 1)
        return out

    def _advance(self, key: tuple, group_delta: ZSet) -> None:
        state = self._groups.get(key)
        if state is None:
            state = self._groups[key] = _GroupState(len(self.specs))
        for frozen, weight in group_delta.items():
            row = thaw_row(frozen)
            state.weight += weight
            for i, spec in enumerate(self.specs):
                if spec.column is None:
                    continue
                value = row.get(spec.column)
                if value is None:
                    continue
                state.nonnull[i] += weight
                if spec.function in ("sum", "avg"):
                    state.sums[i] += value * weight
                elif spec.function in ("min", "max"):
                    state.values[i][value] += weight
                    if state.values[i][value] == 0:
                        del state.values[i][value]
        if state.weight < 0 or any(n < 0 for n in state.nonnull):
            raise ValueError(
                f"group {key!r} reached negative multiplicity; "
                f"delta state diverged from the base data"
            )
        if state.weight == 0 and self.group_by:
            del self._groups[key]

    def _output_row(self, key: tuple) -> dict[str, Any] | None:
        """The group's current output row (``None`` when the group is absent)."""
        state = self._groups.get(key)
        if state is None:
            return None
        if state.weight == 0 and self.group_by:
            return None
        row: dict[str, Any] = dict(zip(self.group_by, key))
        for i, spec in enumerate(self.specs):
            row[spec.alias] = self._aggregate_value(state, i, spec)
        return row

    @staticmethod
    def _aggregate_value(state: _GroupState, i: int, spec: AggregateSpec) -> Any:
        if spec.function == "count":
            return state.weight if spec.column is None else state.nonnull[i]
        if state.nonnull[i] == 0:
            return None  # sum/avg/min/max over zero non-NULL rows
        if spec.function == "sum":
            return state.sums[i]
        if spec.function == "avg":
            return state.sums[i] / state.nonnull[i]
        if spec.function == "min":
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

    def __init__(self, stages: Sequence[tuple[str, dict[str, Any]]],
                 n_inputs: int) -> None:
        if not stages:
            raise ValueError("DeltaRecompute needs at least one stage")
        #: ``(kind, params)`` pairs, bottom-most first.
        self.stages = [(kind, dict(params)) for kind, params in stages]
        self._inputs = [ZSet() for _ in range(n_inputs)]
        self._last_output = ZSet()
        #: The most recent recomputed rows, in operator order.
        self.ordered_rows: list[dict[str, Any]] = []

    @property
    def kind(self) -> str:
        """The top-most (output-shaping) stage's kind."""
        return self.stages[-1][0]

    def apply(self, *deltas: ZSet) -> ZSet:
        for state, delta in zip(self._inputs, deltas):
            state.update(delta)
        if all(delta.is_empty for delta in deltas):
            return ZSet()
        self.ordered_rows = self._recompute()
        new_output = ZSet.from_rows(self.ordered_rows)
        diff = ZSet.diff(new_output, self._last_output)
        self._last_output = new_output
        return diff

    def _recompute(self) -> list[dict[str, Any]]:
        scans = [TableScan(state.to_rows()) for state in self._inputs]
        (kind, params), *upper = self.stages
        operator = build_operator(kind, params, *scans)
        for kind, params in upper:
            operator = build_operator(kind, params, operator)
        return operator.execute()
