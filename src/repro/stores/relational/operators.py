"""Physical operators for the relational engine.

The set matches the operators the paper lists as what SQL queries are
lowered to (§III-A-1): projection, hash, sort, group-by and join, plus scans,
filters and limits.

Operators are *positional and plan-typed*: each carries the ``schema`` of
its output, computed from its inputs' schemas and its own parameters when the
tree is built, and produces row tuples laid out in that schema.  Column names
resolve to tuple positions once per tree, never per row — predicates, tuple
readers and the group-aggregate loop are generated for those positions by
:mod:`~repro.stores.relational.kernels` — and no schema is inferred from the
values flowing through.  Engine and adapters build trees over
:class:`~repro.datamodel.table.Table` inputs and read the result with
:meth:`PhysicalOperator.to_table`.  Dictionaries survive only at the public
edge: :class:`TableScan` also accepts dict rows and
:meth:`PhysicalOperator.execute` returns dict rows.  The views' delta
operators bind by building the matching operator here over an empty scan for
its ``schema`` and taking their readers from the functions below (a join's
from the operator), so both routes resolve names and type results in one place.

Key columns (sort, group-by, join and top-k keys, aggregate inputs) the input
lacks read as ``None``, as a dict row without that key always did;
projections and expressions reject unknown columns with
:class:`~repro.exceptions.QueryError` when the tree is built.
"""

from __future__ import annotations

import abc
import functools
import heapq
import itertools
import textwrap
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.datamodel.schema import Column, DataType, Schema
from repro.datamodel.table import Row, Table
from repro.exceptions import QueryError
from repro.stores.relational.expressions import (ColumnRef, Comparison, Expression,
                                                 Literal, split_conjunction)
from repro.stores.relational import kernels

RowDict = dict[str, Any]


class PhysicalOperator(abc.ABC):
    """Base class of the physical operators."""

    #: Schema of the rows this operator produces, fixed at construction.
    schema: Schema

    @abc.abstractmethod
    def rows(self) -> Iterable[Row]:
        """Produce the output rows as tuples laid out in :attr:`schema`."""

    def to_table(self) -> Table:
        """Materialize the output as a plan-typed :class:`Table`."""
        return Table.wrap(self.schema, list(self.rows()))

    def execute(self) -> list[RowDict]:
        """Materialize the output as dict rows (the public-edge form)."""
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows()]


class TableScan(PhysicalOperator):
    """Leaf of every tree: a :class:`Table`, or an iterable of dict rows.

    Dict rows carry no declared schema, so one is inferred from them here —
    the only place in the operator tree that looks at values for types.
    """

    def __init__(self, source: Table | Iterable[Mapping[str, Any]]) -> None:
        if isinstance(source, Table):
            self.schema, self._rows = source.schema, source.rows
            return
        dicts = list(source)
        self.schema = Schema.infer(dicts) if dicts else Schema([])
        names = self.schema.names
        self._rows = [tuple(row.get(name) for name in names) for row in dicts]

    def rows(self) -> list[Row]:
        return self._rows


class Filter(PhysicalOperator):
    """Emit only rows satisfying a predicate expression."""

    def __init__(self, child: PhysicalOperator, predicate: Expression) -> None:
        self._child = child
        self.schema = child.schema
        self._select = kernels.select(child.schema, predicate)

    def rows(self) -> list[Row]:
        return self._select((self._child.rows(),))


class Project(PhysicalOperator):
    """Keep only the named columns, in the given order."""

    def __init__(self, child: PhysicalOperator, columns: Sequence[str]) -> None:
        self._child = child
        missing = [name for name in columns if name not in child.schema]
        if missing:
            raise QueryError(f"projection references unknown column {missing[0]!r}")
        self.schema = child.schema.project(columns)
        #: ``row -> projected row``.
        self.pick = tuple_reader(child.schema, columns)

    def rows(self) -> Iterable[Row]:
        return map(self.pick, self._child.rows())


class Limit(PhysicalOperator):
    """Emit at most ``n`` rows."""

    def __init__(self, child: PhysicalOperator, n: int) -> None:
        if n < 0:
            raise QueryError("LIMIT must be non-negative")
        self._child = child
        self.schema = child.schema
        self._n = n

    def rows(self) -> Iterable[Row]:
        return itertools.islice(self._child.rows(), self._n)


class Sort(PhysicalOperator):
    """In-memory sort by one or more columns (CPU Timsort path).

    ``None`` sorts first (last when ``descending``).
    """

    def __init__(self, child: PhysicalOperator, by: Sequence[str], *,
                 descending: bool = False) -> None:
        self._child = child
        self.schema = child.schema
        self._readers = [column_reader(child.schema, name) for name in by]
        self._descending = descending

    def rows(self) -> list[Row]:
        readers = self._readers

        def key(row: Row) -> tuple:
            return tuple(((value := read(row)) is not None, value)
                         for read in readers)

        return sorted(self._child.rows(), key=key, reverse=self._descending)


class HashJoin(PhysicalOperator):
    """Equi-join using an in-memory hash table built on the right input.

    Output rows are the left row followed by the right row's columns whose
    names the left side lacks (nullable under ``how="left"``, where unmatched
    left rows pad them with ``None``).
    """

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_key: str, right_key: str, *, how: str = "inner") -> None:
        if how not in ("inner", "left"):
            raise QueryError(f"unsupported join type {how!r}")
        self._left, self._right, self._how = left, right, how
        self.left_key = column_reader(left.schema, left_key)
        self.right_key = column_reader(right.schema, right_key)
        extra = [c for c in right.schema if c.name not in left.schema]
        #: ``right row -> the columns it appends to a matching left row``.
        self.extra = tuple_reader(right.schema, [c.name for c in extra])
        if how == "left":
            extra = [Column(c.name, c.dtype, nullable=True) for c in extra]
        self.schema = Schema(list(left.schema) + extra)

    def rows(self) -> Iterable[Row]:
        left_key, right_key, extra = self.left_key, self.right_key, self.extra
        buckets: dict[Any, list[Row]] = {}
        for row in self._right.rows():
            key = right_key(row)
            if key is not None:
                buckets.setdefault(key, []).append(extra(row))
        padding = (None,) * (len(self.schema) - len(self._left.schema)) \
            if self._how == "left" else None
        for left_row in self._left.rows():
            key = left_key(left_row)
            matches = buckets.get(key) if key is not None else None
            if matches:
                for right_extra in matches:
                    yield left_row + right_extra
            elif padding is not None:
                yield left_row + padding


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate to compute: ``function(column) AS alias``."""

    function: str
    column: str | None
    alias: str

    _SUPPORTED = ("count", "sum", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.function not in self._SUPPORTED:
            raise QueryError(f"unsupported aggregate function {self.function!r}")
        if self.function != "count" and self.column is None:
            raise QueryError(f"aggregate {self.function!r} requires a column")


def aggregate_dtype(function: str, source: Column | None) -> DataType:
    """Output type of ``function`` over ``source`` (``None``: not in the input).

    ``sum``/``min``/``max`` keep the source type, except that summing
    booleans counts them (Python and SQL both give an integer).
    """
    if function == "count":
        return DataType.INT
    if function == "avg" or source is None:
        return DataType.FLOAT
    if function == "sum" and source.dtype is DataType.BOOL:
        return DataType.INT
    return source.dtype


class GroupByAggregate(PhysicalOperator):
    """Hash group-by with the standard SQL aggregates, groups in first-seen
    order; with no grouping columns an empty input still yields one row.

    ``count(*)`` counts rows and every other aggregate skips ``None``: ``sum``
    is the left fold from ``0``, ``avg`` that over the number folded, ``min`` /
    ``max`` the first extreme; all but the counts are ``None`` over no value.
    """

    def __init__(self, child: PhysicalOperator, group_by: Sequence[str],
                 aggregates: Sequence[AggregateSpec]) -> None:
        self._child = child
        self._kernel, self.schema = aggregate_kernel(
            child.schema, tuple(group_by), tuple(aggregates))

    def rows(self) -> list[Row]:
        return self._kernel((self._child.rows(),), {})


class TopK(PhysicalOperator):
    """Heap-based top-k by a column, equivalent to ORDER BY ... LIMIT k.

    Rows whose ``by`` value is ``None`` never qualify.
    """

    def __init__(self, child: PhysicalOperator, by: str, k: int, *,
                 descending: bool = True) -> None:
        if k < 0:
            raise QueryError("k must be non-negative")
        self._child = child
        self.schema = child.schema
        self._by = column_reader(child.schema, by)
        self._k = k
        self._descending = descending

    def rows(self) -> list[Row]:
        by = self._by
        candidates = (row for row in self._child.rows() if by(row) is not None)
        select = heapq.nlargest if self._descending else heapq.nsmallest
        return select(self._k, candidates, key=by)


def build_operator(kind: str, params: Mapping[str, Any],
                   *children: PhysicalOperator) -> PhysicalOperator:
    """The physical operator for one IR-style ``(kind, params)`` step.

    The one place parameter names and defaults are read, for the adapters'
    federated path and the views' bounded recompute alike.
    """
    if kind == "join":
        left, right = children
        left_key, right_key = str(params["left_key"]), str(params["right_key"])
        return HashJoin(left, right, left_key, right_key,
                        how=str(params.get("how", "inner")))
    (child,) = children
    if kind == "filter":
        return Filter(child, params["predicate"])
    if kind == "project":
        return Project(child, list(params.get("columns") or []))
    if kind == "aggregate":
        return GroupByAggregate(child, list(params.get("group_by") or []),
                                list(params.get("aggregates") or []))
    if kind == "sort":
        return Sort(child, [str(params["by"])],
                    descending=bool(params.get("descending", False)))
    if kind == "limit":
        return Limit(child, int(params["n"]))
    if kind == "top_k":
        return TopK(child, str(params["by"]), int(params["k"]),
                    descending=bool(params.get("descending", True)))
    raise QueryError(f"no physical operator for kind {kind!r}")


def column_reader(schema: Schema, name: str) -> Callable[[Row], Any]:
    """``row -> value`` of one key column (``None`` when the schema lacks it)."""
    if name in schema:
        return itemgetter(schema.index_of(name))
    return lambda row: None


def tuple_reader(schema: Schema, names: Sequence[str]) -> Callable[[Row], tuple]:
    """``row -> tuple`` of the named columns (``None`` for ones the schema lacks)."""
    out = kernels.Source(schema)
    return out.kernel("tuple", "row", f"return {out.cells(names, or_none=True)}")


#: Per aggregate function: its accumulator slots' initial values, the step for
#: a non-``None`` value ``v`` (``a`` is the group's accumulators, ``{i}`` and
#: ``{j}`` its first two slots) and the result.
_ACCUMULATORS = {
    "count": (["0"], "a[{i}] += 1", "a[{i}]"),
    "sum": (["None"], "s = a[{i}]; a[{i}] = (0 if s is None else s) + v", "a[{i}]"),
    "avg": (["0", "0"], "a[{i}] += 1; a[{j}] = a[{j}] + v",
            "(a[{j}] / a[{i}] if a[{i}] else None)"),
    "min": (["None"], "s = a[{i}]\nif s is None or v < s: a[{i}] = v", "a[{i}]"),
    "max": (["None"], "s = a[{i}]\nif s is None or v > s: a[{i}] = v", "a[{i}]"),
}

#: The same for a row of weight ``w`` (a Z-set delta's): slot ``{i}`` counts
#: the non-``None`` values, a sum is the left fold of ``v * w`` from ``0``, and
#: ``min`` / ``max`` keep a counted multiset.  ``count(*)`` reads ``a[0]``, the
#: group's weight, which every row adds to.
_MULTISET = "a[{i}] += w; c = a[{j}]; t = c.get(v, 0) + w\nif t: c[v] = t\nelse: del c[v]"
_WEIGHTED = {
    "count": (["0"], "a[{i}] += w", "a[{i}]"),
    "sum": (["0", "0"], "a[{i}] += w; a[{j}] = a[{j}] + v * w",
            "(a[{j}] if a[{i}] else None)"),
    "avg": (["0", "0"], "a[{i}] += w; a[{j}] = a[{j}] + v * w",
            "(a[{j}] / a[{i}] if a[{i}] else None)"),
    "min": (["0", "{}"], _MULTISET, "(min(a[{j}]) if a[{i}] else None)"),
    "max": (["0", "{}"], _MULTISET, "(max(a[{j}]) if a[{i}] else None)"),
}

#: ``(chunks, groups) -> output rows`` over lists of rows, and the output schema.
AggregateKernel = tuple[Callable[[Iterable[Iterable[Row]], dict], list[Row]], Schema]


def aggregate_kernel(source: Schema, group_by: tuple[str, ...],
                     aggregates: tuple[AggregateSpec, ...],
                     predicate: Expression | None = None) -> AggregateKernel:
    """What a :class:`GroupByAggregate` derives from its parameters: the output
    schema, and ``(chunks, groups) -> output rows`` — one pass over every row
    of every chunk, one accumulator list per group in ``groups`` (``{}`` to
    start), keyed by the group, by the bare value when one column groups.

    With ``predicate`` the same loop first tests each row and folds only
    those that satisfy it: the page walk of a scan that feeds an aggregate
    (:meth:`~repro.stores.relational.engine.RelationalEngine.scan`).  Only
    the test is written per call; its literals are arguments of the
    generated factory, so a new literal compiles nothing.
    """
    loop = _aggregate_loop(source, group_by, aggregates)
    out = kernels.Source(source)
    # Without a predicate the test is ``True``, which compiles to nothing.
    test = "True" if predicate is None else out.value(predicate, truth=True)
    genesis = "" if group_by else f"if not groups: groups[()] = {loop.fresh}\n"
    return out.kernel("aggregate", "chunks, groups",
                      f"find = groups.get\n{_ROWS.format(test)}{loop.step}{genesis}"
                      f"return [{loop.row} for key, a in groups.items()]"), loop.schema


WeightedKernel = tuple[Callable[[Iterable[Iterable[tuple[Row, int]]], dict, dict], None],
                       Callable[[Any, list], Row], tuple[int, ...]]


def weighted_aggregate_kernel(source: Schema,
                              below: Sequence[tuple[str, Mapping[str, Any]]],
                              group_by: tuple[str, ...],
                              aggregates: tuple[AggregateSpec, ...]) -> WeightedKernel:
    """A view refresh's aggregate: :func:`aggregate_kernel`'s loop over a Z-set
    delta's ``(row, weight)`` pairs, each folded at its weight.

    Returns ``(fold, row, counts)``.  ``fold(chunks, groups, touched)`` folds
    every pair of every chunk into ``groups`` and records each group it
    touches in ``touched``, in first-touched order (the global group, created
    on the first fold, first).  ``row(key, a)`` is a group's output row, and
    ``counts`` the slots that count rows, which a delta stream consistent with
    its base never takes below zero.  ``below`` is the run of ``filter`` /
    ``project`` steps under the aggregate, bottom first, fused into the same
    function: a filter is a test; a project consolidates the rows it maps
    together, as its own Z-set would, before the next step reads them.
    """
    out, schema, tests, text = kernels.Source(source), source, [], ""
    for kind, params in below:
        if kind == "filter":
            tests.append(f"({out.value(params['predicate'], truth=True)})")
            continue
        columns = list(params.get("columns") or [])
        text += ("merged = {}\nget = merged.get\n"
                 + _PAIRS.format(" and ".join(tests) or "True")
                 + f"            p = {out.cells(columns)}\n            t = get(p, 0) + w\n"
                 "            if t: merged[p] = t\n            else: del merged[p]\n"
                 "chunks = (merged.items(),)\n")
        # The steps above read the projected rows; literals stay one list.
        schema = schema.project(columns)
        constants, out, tests = out.constants, kernels.Source(schema), []
        out.constants = constants
    loop = _aggregate_loop(schema, group_by, aggregates, weighted=True)
    genesis = "" if group_by else f"if not groups: groups[()] = touched[()] = {loop.fresh}\n"
    fold = out.kernel("delta_aggregate", "chunks, groups, touched",
                      f"{genesis}{text}find = groups.get\n"
                      f"{_PAIRS.format(' and '.join(tests) or 'True')}{loop.step}")
    row = kernels.Source(schema).kernel("delta_row", "key, a", f"return {loop.row}")
    return fold, row, loop.counts


#: The loop heads: over the rows of each chunk, and over ``(row, weight)`` pairs.
_ROWS = "for chunk in chunks:\n    for row in chunk:\n        if {}:\n"
_PAIRS = "for chunk in chunks:\n    for row, w in chunk:\n        if {}:\n"


class _Loop(NamedTuple):
    schema: Schema
    #: The kernel text below the row test.
    step: str
    #: A new group's accumulators.
    fresh: str
    #: Group ``key``'s output row, from its accumulators ``a``.
    row: str
    #: Weighted: the slots that count rows (``a[0]`` and the non-null counts).
    counts: tuple[int, ...]


@functools.lru_cache(maxsize=512)
def _aggregate_loop(source: Schema, group_by: tuple[str, ...],
                    aggregates: tuple[AggregateSpec, ...],
                    weighted: bool = False) -> _Loop:
    """The output schema and the kernel texts of an aggregate: writing them
    costs ~15 µs, more than the loop takes over a hundred rows.  They read
    columns only, so they bind no literal."""
    schema = Schema(
        [source[name] if name in source else Column(name, DataType.STRING)
         for name in group_by]
        + [Column(spec.alias, aggregate_dtype(
            spec.function, source[spec.column] if spec.column in source else None))
           for spec in aggregates])
    out = kernels.Source(source)
    scalar = len(group_by) == 1
    key = out.column(group_by[0], or_none=True) if scalar \
        else out.cells(group_by, or_none=True)
    table = _WEIGHTED if weighted else _ACCUMULATORS
    initial = ["0"] if weighted else []
    counts = [0] if weighted else []
    results = ""
    steps: dict[str | None, str] = {}  # by input cell; None (count(*)): every row
    for spec in aggregates:
        if weighted and spec.column is None:
            results += "a[0],"
            continue
        slots, step, result = table[spec.function]
        at = {"i": len(initial), "j": len(initial) + 1}
        counts.append(at["i"])
        initial += slots
        results += result.format(**at) + ","
        cell = spec.column and out.column(spec.column, or_none=True)
        steps[cell] = steps.get(cell, "") + step.format(**at) + "\n"
    fresh = f"[{', '.join(initial)}]"
    loop = f"key = {key}\na = find(key)\nif a is None:\n    groups[key] = a = {fresh}\n"
    if weighted:
        loop += "touched[key] = a\na[0] += w\n"
    for cell, step in steps.items():
        loop += step if cell is None else \
            f"v = {cell}\nif v is not None:\n{textwrap.indent(step, '    ')}"
    return _Loop(schema, textwrap.indent(loop, " " * 12), fresh,
                 f"{'(key,)' if scalar else 'key'} + ({results})",
                 tuple(counts) if weighted else ())


# -- the vector fold over sealed pages -------------------------------------------------

#: :class:`~repro.stores.relational.storage.PageColumn` kinds a sum reads.
_NUMBERS = frozenset({int, bool, float})
#: Int sums fold through float64 ``bincount`` weights, exact up to 2**53; int
#: group keys fold as at most ``_SPAN`` dense slots; a page's string group
#: column holds at most ``_FEW`` distinct values.  A run is at most ``RUN``
#: pages: a fold's fixed numpy cost is paid once a run, so 64 pages fold a
#: 50 000-row table of 256-row pages in 4 folds, not the 13 runs of 16 take
#: (~40 % less time), while a run's arrays stay a few hundred KiB.
_EXACT, _SPAN, _FEW, RUN = 2 ** 53, 1 << 16, 64, 64


def _comparable(literal: Any) -> frozenset[type]:
    """The column kinds numpy compares with ``literal`` exactly as Python does."""
    if type(literal) is float:
        return frozenset({float})
    if type(literal) in (int, bool) and -2 ** 63 <= literal < 2 ** 63:
        return _NUMBERS if abs(literal) <= _EXACT else frozenset({int, bool})
    return frozenset()


class VectorFold:
    """A fused scan-aggregate's fold of runs of sealed pages with numpy over
    their :meth:`~repro.stores.relational.storage.Page.column` arrays, leaving
    ``groups`` as the row kernel would: counts and int sums add exactly, and a
    float sum stays one left fold, since ``np.bincount`` adds its weights in
    order after the group's running total."""

    def __init__(self, key: int | None, inputs: list[int | None], sums: list[bool],
                 mask: Callable[[Any], Any] | None, tested: list[int],
                 needs: dict[int, frozenset[type]]) -> None:
        self._key, self._inputs, self._sums = key, inputs, sums
        self._mask, self._tested = mask, tested
        #: The columns read, the group column last, and the kinds each may be.
        self._positions = sorted(needs, key=lambda position: position == key)
        self._allowed = [needs[position] for position in self._positions]

    def kinds(self, page: Any) -> tuple[type, ...] | None:
        """The kinds of the columns read on ``page``, a sealed one, or ``None``
        when the row kernel has to fold it."""
        columns = list(map(page.column, self._positions))
        if None in columns:
            return None
        kinds = tuple(column.kind for column in columns)
        if all(map(frozenset.__contains__, self._allowed, kinds)) and (
                self._key is None
                or columns[-1].nulls is None and len(columns[-1].keys) <= _FEW):
            return kinds
        return None

    def fold(self, run: list[Any], groups: dict) -> bool:
        """Fold ``run``, pages of equal :meth:`kinds`, into ``groups``; or leave
        it to the row kernel (``False``): an int sum could pass 2**53, a sum
        would go on from a total of another type, int keys span too widely."""
        parts = {at: [page.column(at) for page in run] for at in self._positions}
        kinds = {at: columns[0].kind for at, columns in parts.items()}
        values = {at: np.concatenate([column.values for column in columns],
                                     dtype=np.float64 if kinds[at] is float else np.int64)
                  for at, columns in parts.items()}
        nulls = {at: np.concatenate([np.zeros(len(column.values), bool) if column.nulls
                                     is None else column.nulls for column in columns])
                 for at, columns in parts.items() if any(c.nulls is not None for c in columns)}
        keep = self._mask(values) if self._mask else np.ones(sum(map(len, run)), bool)
        for at in self._tested:
            if at in nulls:
                keep &= ~nulls[at]
        if not keep.any():
            return True
        if self._key is None:
            slots, names = np.zeros(np.count_nonzero(keep), np.intp), [()]
        elif kinds[self._key] is str:
            index: dict[str, int] = {}
            slots = np.concatenate([np.array([index.setdefault(name, len(index))
                                              for name in column.keys], np.intp)[column.values]
                                    for column in parts[self._key]])[keep]
            names = list(index)
        else:  # dense slots from the least key up
            slots = values[self._key][keep]
            low = int(slots.min())
            names = range(low, int(slots.max()) + 1)
            if len(names) > _SPAN:
                return False
            names = (False, True)[low:names.stop] if kinds[self._key] is bool else names
            slots -= low
        width = len(names)
        counts = np.bincount(slots, minlength=width)
        order: dict[int, None] = {}  # the slots present, in first-seen order
        start, step, present = 0, 1024, np.count_nonzero(counts)
        while len(order) < present:
            order.update(dict.fromkeys(slots[start:start + step].tolist()))
            start, step = start + step, step * 4
        keys = [names[slot] for slot in order]
        found = [groups.get(key) for key in keys]
        updates = []
        for at, (position, is_sum) in enumerate(zip(self._inputs, self._sums)):
            valid = ~nulls[position][keep] if position in nulls else slice(None)
            chosen = slots[valid]
            tally = (counts if position not in nulls
                     else np.bincount(chosen, minlength=width)).tolist()
            if not is_sum:
                updates.append((at, None, tally))
                continue
            weights, floats = values[position][keep][valid], kinds[position] is float
            running = [(slot, a[at]) for slot, a in zip(order, found)
                       if a is not None and a[at] is not None]
            if any(type(total) is not (float if floats else int) for _, total in running) \
                    or not floats and weights.size and _EXACT < weights.size * max(
                        -int(weights.min()), int(weights.max())):
                return False
            if floats and running:
                chosen = np.concatenate([[slot for slot, _ in running], chosen])
                weights = np.concatenate([[total for _, total in running], weights])
            sums = np.bincount(chosen, weights, width).tolist()
            updates.append((at, floats, [total if n else None
                                         for total, n in zip(sums, tally)]))
        fresh = [None if is_sum else 0 for is_sum in self._sums]
        for slot, key, a in zip(order, keys, found):
            if a is None:
                groups[key] = a = list(fresh)
            for at, floats, by_slot in updates:
                if floats is None:
                    a[at] += by_slot[slot]
                elif by_slot[slot] is not None:
                    a[at] = by_slot[slot] if floats \
                        else (0 if a[at] is None else a[at]) + int(by_slot[slot])
        return True


def vector_fold(source: Schema, group_by: tuple[str, ...],
                aggregates: tuple[AggregateSpec, ...],
                predicate: Expression | None) -> VectorFold | None:
    """The :class:`VectorFold` of a fused scan-aggregate, or ``None`` when every
    page takes the row kernel: ``min``, ``max``, ``avg``, more than one group
    column, a column the table lacks, or a predicate other than a conjunction
    of column-against-number comparisons."""
    names = [*group_by, *(spec.column for spec in aggregates if spec.column is not None)]
    if len(group_by) > 1 or any(name not in source for name in names) or any(
            spec.function not in ("count", "sum") for spec in aggregates):
        return None
    needs: dict[int, frozenset[type]] = {}

    def need(name: str, kinds: frozenset[type]) -> int:
        position = source.index_of(name)
        needs[position] = needs.get(position, kinds) & kinds
        return position

    mask, tested = None, []
    if predicate is not None:
        out, tests = kernels.Source(source), []
        out.row = "v"  # ``v[i]``: column ``i`` of a run of pages, one array
        for conjunct in split_conjunction(predicate):
            if not isinstance(conjunct, Comparison):
                return None
            column, literal = conjunct.left, conjunct.right
            if isinstance(literal, ColumnRef):
                column, literal = literal, column
            if not (isinstance(column, ColumnRef) and column.name in source
                    and isinstance(literal, Literal) and _comparable(literal.value)):
                return None
            tested.append(need(column.name, _comparable(literal.value)))
            # ``((v[i] is not None) and v[i] > k0)``: the nulls are masked apart.
            tests.append(out.value(conjunct, truth=True))
        mask = out.kernel("mask", "v", "return " + " & ".join(tests))
    inputs = [None if spec.column is None else need(
        spec.column, _NUMBERS if spec.function == "sum" else _NUMBERS | {str})
        for spec in aggregates]
    key = need(group_by[0], frozenset({int, bool, str})) if group_by else None
    return VectorFold(key, inputs, [spec.function == "sum" for spec in aggregates],
                      mask, tested, needs)


# -- partial aggregates ---------------------------------------------------------------


@dataclass(frozen=True)
class CombineSpec:
    """How one output aggregate combines from partial-aggregate columns."""

    alias: str
    function: str
    partials: tuple[str, ...]
    #: Source column the aggregate reads (``None`` for ``count(*)``); the
    #: empty-result path derives the output column's dtype from it.
    column: str | None = None


def decompose_aggregates(aggregates: Sequence[AggregateSpec]
                         ) -> tuple[list[AggregateSpec], list[CombineSpec]]:
    """Split aggregates into partials plus combine rules.

    ``sum``/``count``/``min``/``max`` are algebraic and combine with
    themselves; ``avg`` decomposes into a partial ``sum`` and ``count``.
    """
    partials: list[AggregateSpec] = []
    combines: list[CombineSpec] = []
    for position, spec in enumerate(aggregates):
        if spec.function == "avg":
            sum_alias = f"__p{position}_sum"
            count_alias = f"__p{position}_count"
            partials.append(AggregateSpec("sum", spec.column, sum_alias))
            partials.append(AggregateSpec("count", spec.column, count_alias))
            combines.append(CombineSpec(spec.alias, "avg", (sum_alias, count_alias),
                                        spec.column))
        else:
            partial_alias = f"__p{position}_{spec.function}"
            partials.append(AggregateSpec(spec.function, spec.column, partial_alias))
            combines.append(CombineSpec(spec.alias, spec.function, (partial_alias,),
                                        spec.column))
    return partials, combines


#: How a partial column folds: counts (``avg``'s too) sum; ``sum`` / ``min`` /
#: ``max`` fold with themselves.
_FOLDS = {"count": "sum", "avg": "sum"}


def combine_partial_aggregates(parts: Sequence[Table], group_by: Sequence[str],
                               combines: Sequence[CombineSpec]) -> Table:
    """Merge partial-aggregate tables into the final result.

    The partials come from the shards of a sharded aggregate, or from the
    page walk of a scan that aggregated what it read.  Their rows, in part
    order, run through the generated aggregate loop grouped by the same
    columns, each partial column folded as :data:`_FOLDS` says; an ``avg``
    then divides its summed ``sum`` by its summed ``count``.  Groups keep
    their first-seen order, and SQL null semantics are preserved
    (``sum``/``min``/``max`` over no non-null values stay ``None``).  A single
    part — a fused scan's output, or one shard's partial aggregate — already
    holds each group once, in first-seen order, and is only finished.  The
    result's schema comes from the partials' plan-typed schemas and the
    combine rules, never from the combined values.

    Every partial row is laid out as ``group_by`` then the partials in
    ``combines`` order: each part was aggregated with the
    :func:`decompose_aggregates` specs.
    """
    group_by, combines = tuple(group_by), tuple(combines)
    fold, finish = _combiner(group_by, combines)
    rows = finish(parts[0].rows if len(parts) == 1
                  else fold([part.rows for part in parts], {}))
    schemas = tuple(part.schema for part in parts)
    return Table.wrap(_combined_schema(schemas, group_by, combines), rows)


@functools.lru_cache(maxsize=512)
def _combiner(group_by: tuple[str, ...], combines: tuple[CombineSpec, ...]
              ) -> tuple[Callable[[Iterable[Iterable[Row]], dict], list[Row]],
                         Callable[[list[Row]], list[Row]]]:
    """The fold over partial rows and the finisher, for one shape."""
    names = (*group_by, *(name for combine in combines for name in combine.partials))
    # Only positions matter to the loop; dtypes come from _combined_schema.
    layout = Schema([Column(name, DataType.FLOAT) for name in names])
    folds = tuple(AggregateSpec(_FOLDS.get(combine.function, combine.function),
                                name, name)
                  for combine in combines for name in combine.partials)
    fold, _ = aggregate_kernel(layout, group_by, folds)
    return fold, _finisher(len(group_by), combines)


def _finisher(width: int, combines: Sequence[CombineSpec]
              ) -> Callable[[list[Row]], list[Row]]:
    """``folded rows -> result rows``, generated: ``avg`` divides; a count
    over no partial row (a global aggregate over nothing) is ``0``, not
    ``None``."""
    cells = [f"row[{at}]" for at in range(width)]
    at = width
    for combine in combines:
        if combine.function == "avg":
            cells.append(f"(row[{at}] / row[{at + 1}] if row[{at + 1}] else None)")
        elif combine.function == "count":
            cells.append(f"(0 if row[{at}] is None else row[{at}])")
        else:
            cells.append(f"row[{at}]")
        at += len(combine.partials)
    return kernels.factory("finish", "rows", "return [("
                           + "".join(cell + "," for cell in cells) + ") for row in rows]", 0)()


@functools.lru_cache(maxsize=512)
def _combined_schema(schemas: tuple[Schema, ...], group_by: tuple[str, ...],
                     combines: tuple[CombineSpec, ...]) -> Schema:
    """Typed schema of a combined-aggregate result.

    Group columns take their dtype from whichever part carries them.
    Aggregate columns follow :func:`aggregate_dtype` applied to the partial
    column, whose own plan-typed dtype already derives from the source
    column (``min``/``max`` preserve it, ``sum`` of ints stays int).
    """
    def column(name: str | None) -> Column | None:
        return next((schema[name] for schema in schemas if name in schema), None)

    columns = [column(name) or Column(name, DataType.STRING) for name in group_by]
    for combine in combines:
        source = column(combine.partials[0]) or column(combine.column)
        columns.append(Column(combine.alias, aggregate_dtype(combine.function, source)))
    return Schema(columns)
