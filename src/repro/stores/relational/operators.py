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
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
#: (~35 % less time), while a run's arrays stay a few hundred KiB.
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
    float sum (an ``avg``'s total too) stays one left fold, since
    ``np.bincount`` adds its weights in order after the group's running
    total.  Given a weight, the pages fold as a view refresh's rows at that
    weight, into :func:`weighted_aggregate_kernel`'s accumulators."""

    def __init__(self, key: int | None, inputs: list[int | None], functions: list[str],
                 mask: Callable[[Any], Any] | None, tested: list[int],
                 needs: dict[int, frozenset[type]]) -> None:
        self._key, self._inputs = key, inputs
        #: Per aggregate, whether it keeps a total: a ``sum`` or an ``avg``.
        self._sums = sums = [function != "count" for function in functions]
        self._mask, self._tested = mask, tested
        #: The columns read, the group column last, and the kinds each may be.
        self._positions = sorted(needs, key=lambda position: position == key)
        self._allowed = [needs[position] for position in self._positions]
        #: Per aggregate, the slots of its non-null count and its total, and a
        #: new group's accumulators.  In the row kernel's, a count or a sum is
        #: one slot (a sum's total starts at ``None``), an ``avg`` two: its
        #: count, then its total from ``0``.  In the weighted ones a total is
        #: two slots from ``0``, after ``a[0]``, the group's weight (all
        #: ``count(*)`` reads).
        self._plain: list[tuple[int | None, int | None]] = []
        self._fresh: list[int | None] = []
        for function in functions:
            at = len(self._fresh)
            if function == "avg":
                self._plain.append((at, at + 1))
                self._fresh += [0, 0]
            else:
                self._plain.append((None, at) if function == "sum" else (at, None))
                self._fresh.append(None if function == "sum" else 0)
        self._weighted: list[tuple[int | None, int | None]] = []
        self._width = 1  # of the weighted accumulators
        for position, is_sum in zip(inputs, sums):
            at = self._width if position is not None else None
            self._weighted.append((at, at and at + 1 if is_sum else None))
            self._width += (1 + is_sum) * (at is not None)

    def runs(self, pages: Sequence[Any]) -> Iterator[tuple[tuple, list[tuple] | None]]:
        """Split ``pages``, sealed ones, where the kinds of the columns read
        change: each part with its columns, a tuple per column read, or with
        ``None`` when the row kernel has to fold it.  Each page's
        :meth:`~repro.stores.relational.storage.Page.column` is fetched once."""
        columns = [[page.column(at) for page in pages] for at in self._positions]
        kinds = [[column and column.kind for column in part] for part in columns]
        if self._key is not None:  # a group column with NULLs or many keys: no kind
            kinds[-1] = [kind if kind and column.nulls is None and len(column.keys) <= _FEW
                         else None for kind, column in zip(kinds[-1], columns[-1])]
        kinds = list(zip(*kinds)) or [()] * len(pages)
        read = {kind: all(map(frozenset.__contains__, self._allowed, kind))
                for kind in set(kinds)}
        for kind, part in itertools.groupby(zip(kinds, pages, *columns), itemgetter(0)):
            _, run, *parts = zip(*part)
            yield run, parts if read[kind] else None

    def fold(self, run: Sequence[Any], columns: list[tuple], groups: dict,
             weight: int | None = None, touched: dict | None = None) -> bool:
        """Fold ``run``, pages of equal kinds, from ``columns``, as :meth:`runs`
        gives them, into ``groups``; or leave it to the row kernel (``False``):
        an int sum could pass 2**53, a sum would go on from a total of another
        type, int keys span too widely.  With ``weight``, each row counts that
        many times in weighted accumulators and each group it reaches goes in
        ``touched``, in first-touched order."""
        parts = dict(zip(self._positions, columns))
        kinds = {at: part[0].kind for at, part in parts.items()}
        values = {at: np.concatenate([column.values for column in part],
                                     dtype=np.float64 if kinds[at] is float else np.int64)
                  for at, part in parts.items()}
        nulls = {at: np.concatenate([np.zeros(len(column.values), bool) if column.nulls
                                     is None else column.nulls for column in part])
                 for at, part in parts.items()
                 if not all([column.nulls is None for column in part])}
        keep = self._mask(values) if self._mask else np.ones(sum(map(len, run)), bool)
        for at in self._tested:
            if at in nulls:
                keep &= ~nulls[at]
        if not keep.any():
            return True
        if self._key is None:
            slots, names = np.zeros(np.count_nonzero(keep), np.intp), [()]
        elif kinds[self._key] is str:  # each distinct ``keys`` translated once
            index: dict[str, int] = {}
            starts: dict[tuple[str, ...], int] = {}  # where each ``keys`` is in ``into``
            into: list[int] = []
            part = parts[self._key]
            for keys in dict.fromkeys(column.keys for column in part):
                starts[keys] = len(into)
                into += [index.setdefault(name, len(index)) for name in keys]
            slots = np.array(into, np.intp)[values[self._key] + np.repeat(
                [starts[column.keys] for column in part], list(map(len, run)))][keep]
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
        order = np.flatnonzero(counts).tolist()  # the slots present
        keys = [names[slot] for slot in order]
        if weight is not None or not all(map(groups.__contains__, keys)):  # first seen first
            seen: dict[int, None] = {}
            start, step = 0, 1024
            while len(seen) < len(order):
                seen.update(dict.fromkeys(slots[start:start + step].tolist()))
                start, step = start + step, step * 4
            order = list(seen)
            keys = [names[slot] for slot in order]
        found = list(map(groups.get, keys))
        w, layout = (1, self._plain) if weight is None else (weight, self._weighted)
        updates = []
        for (count_at, total_at), position, is_sum in zip(layout, self._inputs, self._sums):
            if count_at is None and total_at is None:  # ``count(*)``: ``a[0]``
                continue
            valid = ~nulls[position][keep] if position in nulls else slice(None)
            chosen = slots[valid]
            tally = (counts if position not in nulls
                     else np.bincount(chosen, minlength=width)).tolist()
            if not is_sum:
                updates.append((count_at, None, None, tally, None))
                continue
            weights, floats = values[position][keep][valid], kinds[position] is float
            # A float fold starts at 0.0, as ``0 + v`` does from an int 0 total.
            running = [(slot, a[total_at]) for slot, a in zip(order, found)
                       if a is not None and a[total_at] is not None
                       and not (floats and type(a[total_at]) is int and a[total_at] == 0)]
            if {type(total) for _, total in running} - {float if floats else int} \
                    or not floats and weights.size and _EXACT < weights.size * max(
                        -int(weights.min()), int(weights.max())):
                return False
            if floats:
                if weight is not None:
                    weights = weights * weight
                if running:
                    chosen = np.concatenate([[slot for slot, _ in running], chosen])
                    weights = np.concatenate([[total for _, total in running], weights])
            sums = np.bincount(chosen, weights, width).tolist()
            updates.append((count_at, total_at, floats, tally, sums))
        fresh = self._fresh if weight is None else [0] * self._width
        rows = counts.tolist() if weight is not None else None
        for slot, key, a in zip(order, keys, found):
            if a is None:
                groups[key] = a = list(fresh)
            if weight is not None:
                touched[key] = a
                a[0] += weight * rows[slot]
            for count_at, total_at, floats, tally, sums in updates:
                if count_at is not None:
                    a[count_at] += w * tally[slot]
                if total_at is not None and tally[slot]:
                    a[total_at] = sums[slot] if floats \
                        else (0 if a[total_at] is None else a[total_at]) + w * int(sums[slot])
        return True


def vector_fold(source: Schema, group_by: tuple[str, ...],
                aggregates: tuple[AggregateSpec, ...],
                predicate: Expression | None) -> VectorFold | None:
    """The :class:`VectorFold` of a fused scan-aggregate, or ``None`` when every
    page takes the row kernel: ``min``, ``max``, more than one group column, a
    column the table lacks, or a predicate other than a conjunction of
    column-against-number comparisons."""
    names = [*group_by, *(spec.column for spec in aggregates if spec.column is not None)]
    if len(group_by) > 1 or any(name not in source for name in names) or any(
            spec.function not in ("count", "sum", "avg") for spec in aggregates):
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
        spec.column, _NUMBERS | {str} if spec.function == "count" else _NUMBERS)
        for spec in aggregates]
    key = need(group_by[0], frozenset({int, bool, str})) if group_by else None
    return VectorFold(key, inputs, [spec.function for spec in aggregates], mask, tested,
                      needs)
