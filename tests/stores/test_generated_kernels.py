"""The generated group-aggregate loop against a list-and-fold reference, and
the counts that say a kernel is generated once and walks its input once.

The reference is the operator this loop replaced, written plainly: group the
rows into lists, then fold each list once per aggregate — ``sum`` as the left
fold from ``0`` (what a view's weighted fold, ``weighted_aggregate_kernel``,
computes at weight 1; builtin ``sum`` compensates floats from Python 3.12 on),
builtin ``min`` / ``max``.
"""

from __future__ import annotations

import functools
import gc
import linecache
import operator
import traceback
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataflowProgram, col
from repro.compiler.pipeline import CompilerOptions
from repro.core import build_cpu_polystore
from repro.datamodel import Column, DataType, Schema, Table, make_schema
from repro.eide.dataflow import Dataset
from repro.exceptions import QueryError
from repro.stores import RelationalEngine
from repro.stores.relational.kernels import factory
from repro.stores.relational.operators import (
    AggregateSpec,
    Filter,
    GroupByAggregate,
    Project,
    TableScan,
    aggregate_dtype,
)

SCHEMA = make_schema(("g", DataType.INT), ("h", DataType.STRING),
                     ("x", DataType.FLOAT), ("b", DataType.BOOL))
FUNCTIONS = ("count", "sum", "avg", "min", "max")
NAN = float("nan")


def _reference(rows, group_by, specs):
    def cell(row, name):
        return row[SCHEMA.index_of(name)] if name in SCHEMA else None

    groups: dict[tuple, list[tuple]] = {}
    for row in rows:
        groups.setdefault(tuple(cell(row, name) for name in group_by), []).append(row)
    if not groups and not group_by:
        groups[()] = []
    out = []
    for key, members in groups.items():
        cells = []
        for spec in specs:
            if spec.column is None:
                cells.append(len(members))
                continue
            values = [v for v in (cell(row, spec.column) for row in members)
                      if v is not None]
            if spec.function == "count":
                cells.append(len(values))
            elif not values:
                cells.append(None)
            elif spec.function in ("sum", "avg"):
                total = functools.reduce(operator.add, values, 0)
                cells.append(total if spec.function == "sum" else total / len(values))
            else:
                cells.append({"min": min, "max": max}[spec.function](values))
        out.append(key + tuple(cells))
    return out


def _reference_schema(group_by, specs) -> Schema:
    return Schema(
        [SCHEMA[name] if name in SCHEMA else Column(name, DataType.STRING)
         for name in group_by]
        + [Column(spec.alias, aggregate_dtype(
            spec.function, SCHEMA[spec.column] if spec.column in SCHEMA else None))
           for spec in specs])


def _outcome(compute):
    """Rows cell by cell as ``(type, repr)`` — NaN, ``-0.0`` and ``True`` are
    not ``1`` here — or the type of what was raised."""
    try:
        rows = compute()
    except Exception as exc:  # noqa: BLE001 - the type is the thing compared
        return "raised", type(exc)
    return "ok", [[(type(v).__name__, repr(v)) for v in row] for row in rows]


_numbers = st.one_of(
    st.none(), st.integers(-3, 3), st.sampled_from([0.5, -0.0, 1e16, -1e16, 1.0]),
    st.sampled_from([NAN, float("inf"), float("-inf"), True, False]))
_rows = st.lists(st.tuples(
    st.one_of(st.none(), st.integers(0, 2), st.just(NAN), st.just(1.0), st.just(True)),
    st.sampled_from([None, "a", "b"]),
    # Mostly numbers; strings make ``sum`` raise and order against each other.
    st.one_of(_numbers, _numbers, st.sampled_from(["s", "t"])),
    st.one_of(st.none(), st.booleans())), max_size=30)
# ``count(*)`` is the only aggregate without a column.
_specs = st.lists(st.tuples(
    st.sampled_from(FUNCTIONS), st.sampled_from([None, "g", "h", "x", "b", "absent"])),
    min_size=1, max_size=5).map(lambda pairs: [
        AggregateSpec(function, column if function == "count" else column or "x", f"a{i}")
        for i, (function, column) in enumerate(pairs)])
_group_by = st.lists(st.sampled_from(["g", "h", "b", "absent"]), max_size=3, unique=True)


@settings(max_examples=500, deadline=None)
@given(_rows, _group_by, _specs)
def test_the_generated_loop_matches_list_and_fold(rows, group_by, specs):
    physical = GroupByAggregate(TableScan(Table.wrap(SCHEMA, rows)), group_by, specs)
    assert physical.schema == _reference_schema(group_by, specs)
    assert _outcome(physical.rows) == _outcome(lambda: _reference(rows, group_by, specs))


@pytest.mark.parametrize("group_by", [[], ["g"], ["g", "h"]])
def test_empty_input_and_an_all_none_group(group_by):
    specs = [AggregateSpec(function, "x", function) for function in FUNCTIONS] \
        + [AggregateSpec("count", None, "n")]
    for rows in ([], [(1, "a", None, None), (1, "a", None, True)]):
        physical = GroupByAggregate(TableScan(Table.wrap(SCHEMA, rows)), group_by, specs)
        expected = _reference(rows, group_by, specs)
        assert physical.rows() == expected
        if rows or not group_by:
            assert expected[0][len(group_by):] == (0, None, None, None, None, len(rows))


def test_strings_under_sum_raise_what_the_fold_raises():
    rows = [(1, "a", 1.0, None), (1, "b", 2.0, None)]
    physical = GroupByAggregate(TableScan(Table.wrap(SCHEMA, rows)), ["g"],
                                [AggregateSpec("sum", "h", "joined")])
    with pytest.raises(TypeError):
        physical.rows()
    with pytest.raises(TypeError):
        _reference(rows, ["g"], [AggregateSpec("sum", "h", "joined")])


def test_a_view_and_its_recompute_add_floats_in_the_same_order():
    """``[1e16, 1.0, -1e16]``: a left fold gives 0.0, a compensated sum 1.0."""
    system = build_cpu_polystore([RelationalEngine("db")])
    schema = make_schema(("k", DataType.INT), ("x", DataType.FLOAT))
    system.engine("db").load_table("t", Table(schema, [(1, 1e16), (1, 1.0), (1, -1e16)]))
    expr = system.dataset("db").table("t").aggregate(["k"], total=("sum", "x"),
                                                     mean=("avg", "x"))
    view = system.create_view("totals", expr, policy="manual")
    program = DataflowProgram("recompute")
    program.output("res", Dataset(expr.node))
    recomputed = system.execute(program, options=CompilerOptions(use_views=False))
    assert view.read()[0].rows == recomputed.output("res").rows == [(1, 0.0, 0.0)]


# -- counts: they repeat exactly, timings do not ------------------------------------------

POINTS = make_schema(("pid", DataType.INT), ("name", DataType.STRING))


def test_a_thousand_point_predicates_compile_one_function():
    factory.cache_clear()
    kernels = [(col("pid") == k).compile(POINTS) for k in range(1000)]
    assert factory.cache_info().misses == 1
    assert [k for k, kernel in enumerate(kernels) if kernel((7, "x"))] == [7]
    # The literal is an argument of the factory, not a constant of the code.
    assert kernels[7].__code__ is kernels[8].__code__
    assert 7 not in kernels[7].__code__.co_consts


def test_rerunning_a_prepared_program_compiles_nothing():
    system = build_cpu_polystore([RelationalEngine("db")])
    system.engine("db").load_table("people", Table(POINTS, [(i, "n") for i in range(600)]))
    program = DataflowProgram("point")
    program.output("out", system.dataset("db").table("people")
                   .filter(col("pid") > 300).aggregate(["name"], n=("count", None)))
    with system.session() as session:
        prepared = session.prepare(program)
        first = prepared.run(refresh=True).output("out").rows
        misses = factory.cache_info().misses
        assert prepared.run(refresh=True).output("out").rows == first == [("n", 299)]
        assert factory.cache_info().misses == misses


def test_a_scan_with_columns_and_a_predicate_is_one_pass(monkeypatch):
    engine = RelationalEngine("db")
    engine.load_table("people", Table(POINTS, [(i, str(i)) for i in range(600)]))
    monkeypatch.setattr(Table, "project", lambda *args: pytest.fail("a second pass"))
    result = engine.scan("people", ["name"], col("pid") >= 598)
    assert result.rows == [("598",), ("599",)] and result.schema.names == ("name",)
    assert engine.scan("people", ["name", "pid"]).rows[:1] == [("0", 0)]


def test_a_filter_and_an_index_seek_are_one_pass_each():
    """Neither calls a row function per row: a ``Filter`` is the select kernel
    over one chunk, and a seek filters and projects the rows its index found in
    that same kernel — the answers of the scan that walks every page."""
    rows = [(i % 7, str(i)) for i in range(600)]
    scan = Project(TableScan(Table.wrap(POINTS, rows)), ["pid", "name"])  # rows() is an iterator
    physical = Filter(scan, col("name") > "58")
    assert physical._select.__code__.co_filename.startswith("<kernel select ")
    assert physical.rows() == [row for row in rows if row[1] > "58"]

    engine = RelationalEngine("db")
    engine.load_table("people", Table(POINTS, rows))
    engine.create_index("people", "pid")
    residual = (col("pid") == 3) & (col("name") > "58")
    sought = engine.index_lookup("people", "pid", 3, ["name"], residual)
    assert sought.rows == engine.scan("people", ["name"], residual).rows == \
        [(name,) for pid, name in rows if pid == 3 and name > "58"]
    assert sought.schema.names == ("name",)
    assert engine.index_lookup("people", "pid", 3).rows == [r for r in rows if r[0] == 3]


def test_an_unknown_projected_column_is_an_error_not_a_column_of_nones():
    engine = RelationalEngine("db")
    engine.load_table("people", Table(POINTS, [(1, "a")]))
    with pytest.raises(QueryError, match="nope"):
        engine._stored("people").heap.select(columns=["nope"])
    with pytest.raises(Exception, match="nope"):
        engine.scan("people", ["nope"])


def test_the_aggregate_holds_accumulators_not_rows():
    rows = [(i % 10, "a", float(i), None) for i in range(10_000)]
    physical = GroupByAggregate(
        TableScan(Table.wrap(SCHEMA, rows)), ["g"],
        [AggregateSpec("count", None, "n"), AggregateSpec("sum", "x", "total")])
    tracemalloc.start()
    try:
        out = physical.rows()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 10 and out[3] == (3, 1000, sum(float(i) for i in range(3, 10_000, 10)))
    # Ten groups' accumulators, floats and output rows; ten row lists are > 80 kB.
    assert peak < 10 * 1024


# -- a generated line is a line a traceback and a profile can show --------------------------


def test_a_row_that_raises_shows_the_generated_predicate():
    schema = make_schema(("a", DataType.STRING), ("n", DataType.INT))
    engine = RelationalEngine("db")
    engine.load_table("t", Table(schema, [(i, i) for i in range(17)] + [("a", 17)]))
    with pytest.raises(TypeError) as raised:
        engine.scan("t", ["n"], col("a") < 3)
    text = "".join(traceback.format_exception(raised.value))
    assert "<kernel select " in text
    assert "if ((row[0] is not None) and row[0] < k0)" in text

    physical = GroupByAggregate(TableScan(Table.wrap(schema, [("a", 1), (2, 1)])), ["n"],
                                [AggregateSpec("min", "a", "low")])
    with pytest.raises(TypeError) as raised:
        physical.rows()
    text = "".join(traceback.format_exception(raised.value))
    assert "<kernel aggregate " in text and "if s is None or v < s: a[0] = v" in text
    filename = physical._kernel.__code__.co_filename
    assert filename.startswith("<kernel aggregate ") and linecache.getlines(filename)


def test_a_kernel_text_goes_when_its_last_function_does():
    """``linecache`` holds a text while the cached factory or a kernel it bound
    is alive, no longer: a server fed ad-hoc shapes does not keep them all."""
    kernel = (col("pid") % 977 > 5).compile(POINTS)
    filename = kernel.__code__.co_filename
    factory.cache_clear()
    gc.collect()
    assert linecache.getlines(filename)  # the kernel is still callable: so is its text
    del kernel
    gc.collect()
    assert filename not in linecache.cache


def test_a_text_compiled_again_keeps_its_text_when_the_first_compile_goes():
    """An evicted factory and its recompiled twin name their texts apart: the
    first one's finalizer leaves the twin's ``linecache`` entry alone."""
    first = (col("pid") % 991 > 7).compile(POINTS)
    factory.cache_clear()
    second = (col("pid") % 991 > 7).compile(POINTS)
    filename = second.__code__.co_filename
    assert first.__code__.co_filename != filename
    del first
    gc.collect()
    assert "k0" in "".join(linecache.getlines(filename))
