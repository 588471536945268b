"""Logical plans for the relational engine.

The planner turns a parsed :class:`SelectStatement` into a tree of logical
plan nodes.  The same node vocabulary is reused by the Polystore++ compiler
when it lowers relational fragments of a heterogeneous program, so plan
nodes carry enough information for cost estimation (estimated cardinality)
and for the accelerator placement pass (operator kind).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.exceptions import PlanError
from repro.stores.relational.expressions import Expression
from repro.stores.relational.operators import AggregateSpec
from repro.stores.relational.sql import SelectItem, SelectStatement


@dataclass
class LogicalPlan:
    """Base class for logical plan nodes."""

    def children(self) -> list["LogicalPlan"]:
        """Child plan nodes (empty for leaves)."""
        return []

    @property
    def kind(self) -> str:
        """Short operator name used by cost models and placement."""
        return type(self).__name__.lower()

    def walk(self) -> list["LogicalPlan"]:
        """All nodes of the subtree rooted here, pre-order."""
        nodes: list[LogicalPlan] = [self]
        for child in self.children():
            nodes.extend(child.walk())
        return nodes

    def render(self, indent: int = 0) -> str:
        """Human-readable multi-line rendering of the plan tree."""
        pad = "  " * indent
        lines = [f"{pad}{self.describe()}"]
        for child in self.children():
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        """One-line description of this node."""
        return self.kind


@dataclass
class ScanPlan(LogicalPlan):
    """Sequential scan of a base table."""

    table: str
    columns: tuple[str, ...] | None = None

    def describe(self) -> str:
        cols = "*" if self.columns is None else ", ".join(self.columns)
        return f"Scan({self.table}: {cols})"


@dataclass
class IndexSeekPlan(LogicalPlan):
    """Index-based lookup of a base table."""

    table: str
    column: str
    value: Any

    def describe(self) -> str:
        return f"IndexSeek({self.table}.{self.column} = {self.value!r})"


@dataclass
class FilterPlan(LogicalPlan):
    """Predicate filter."""

    child: LogicalPlan
    predicate: Expression

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return f"Filter({self.predicate})"


@dataclass
class ProjectPlan(LogicalPlan):
    """Column projection."""

    child: LogicalPlan
    columns: tuple[str, ...]

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return f"Project({', '.join(self.columns)})"


@dataclass
class JoinPlan(LogicalPlan):
    """Equi-join of two subplans."""

    left: LogicalPlan
    right: LogicalPlan
    left_key: str
    right_key: str
    how: str = "inner"
    algorithm: str = "hash"   # "hash" or "sort_merge"

    def children(self) -> list[LogicalPlan]:
        return [self.left, self.right]

    def describe(self) -> str:
        return (f"Join({self.left_key} = {self.right_key}, how={self.how}, "
                f"algorithm={self.algorithm})")


@dataclass
class AggregatePlan(LogicalPlan):
    """Group-by aggregation."""

    child: LogicalPlan
    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        aggs = ", ".join(f"{a.function}({a.column or '*'}) AS {a.alias}" for a in self.aggregates)
        keys = ", ".join(self.group_by) or "<none>"
        return f"Aggregate(by=[{keys}], aggs=[{aggs}])"


@dataclass
class SortPlan(LogicalPlan):
    """Sort by a column."""

    child: LogicalPlan
    by: str
    descending: bool = False

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        direction = "DESC" if self.descending else "ASC"
        return f"Sort({self.by} {direction})"


@dataclass
class LimitPlan(LogicalPlan):
    """Row-count limit."""

    child: LogicalPlan
    n: int

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return f"Limit({self.n})"


def build_plan(statement: SelectStatement) -> LogicalPlan:
    """Translate a parsed SELECT statement into a canonical logical plan.

    Canonical ordering (bottom to top): scans, joins, filter, aggregate,
    projection, sort, limit.  The Polystore++ compiler's L1 passes then
    rearrange this plan (predicate pushdown, join reordering, fusion).
    """
    plan: LogicalPlan = ScanPlan(table=statement.table)
    for join in statement.joins:
        right: LogicalPlan = ScanPlan(table=join.table)
        plan = JoinPlan(
            left=plan,
            right=right,
            left_key=_strip_qualifier(join.left_key),
            right_key=_strip_qualifier(join.right_key),
            how=join.how,
        )
    if statement.where is not None:
        plan = FilterPlan(child=plan, predicate=statement.where)
    aggregates = _aggregate_specs(statement.items)
    if aggregates or statement.group_by:
        plan = AggregatePlan(
            child=plan,
            group_by=tuple(_strip_qualifier(c) for c in statement.group_by),
            aggregates=tuple(aggregates),
        )
    elif not statement.select_star:
        columns = tuple(_strip_qualifier(item.column) for item in statement.items
                        if item.column is not None)
        if columns:
            plan = ProjectPlan(child=plan, columns=columns)
    if statement.order_by is not None:
        plan = SortPlan(child=plan, by=_strip_qualifier(statement.order_by),
                        descending=statement.order_descending)
    if statement.limit is not None:
        plan = LimitPlan(child=plan, n=statement.limit)
    return plan


def _aggregate_specs(items: Sequence[SelectItem]) -> list[AggregateSpec]:
    specs = []
    for item in items:
        if item.aggregate is None:
            continue
        column = _strip_qualifier(item.argument) if item.argument else None
        specs.append(AggregateSpec(item.aggregate, column, item.output_name))
    return specs


def _strip_qualifier(name: str | None) -> str:
    if name is None:
        raise PlanError("expected a column name, found None")
    return name.split(".")[-1]


def estimate_output_columns(statement: SelectStatement) -> list[str]:
    """Names of the columns a statement will produce (best effort for ``*``)."""
    if statement.select_star:
        return []
    names = []
    for item in statement.items:
        names.append(item.output_name)
    for key in statement.group_by:
        stripped = _strip_qualifier(key)
        if stripped not in names:
            names.insert(0, stripped)
    return names
