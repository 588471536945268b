"""A scan that feeds a group-aggregate aggregates in its own page walk.

``fold_aggregates_into_scans`` lets the scan fold the aggregate's own specs
into its result and the aggregate hand that table on.  The fused plan is held to three
things here: the shape a reader of the compiled graph relies on (one
``aggregate`` node with the program's parameters, the partitioned read's
``details``, each node's adapter in topological order giving the executor's
table); the answer of the unfused plan (``fusion=False``) on every route —
rows, group order, schema and the type of any exception; and kernels cached
by shape, so that rebinding a literal compiles nothing.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataflowProgram, col, dataset
from repro.cluster import HashPartitioner
from repro.compiler import CompilerOptions
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.eide import Param
from repro.ir.nodes import FOLDED_INTO_SCAN, SCAN_AGGREGATE
from repro.middleware.adapters import adapter_for
from repro.stores import RelationalEngine
from repro.stores.relational import engine as engine_module
from repro.stores.relational.expressions import ColumnRef, Comparison, Literal
from repro.stores.relational.kernels import factory
from repro.stores.relational.operators import (
    AggregateSpec,
    GroupByAggregate,
    TableScan,
)

# -- the contract the benchmark suite's traced pass reads ---------------------------------

FACTS = make_schema(("id", DataType.INT), ("grp", DataType.INT),
                    ("amount", DataType.FLOAT), ("flag", DataType.INT))
THRESHOLD = 100.0


def _scan_agg(engine: str) -> DataflowProgram:
    program = DataflowProgram(f"scan_agg_{engine}")
    program.output("agg", dataset(engine).table("facts")
                   .filter(col("amount") > THRESHOLD)
                   .aggregate(["grp"], n=("count", None), total=("sum", "amount")))
    return program


@pytest.fixture(scope="module")
def scan_agg():
    # Integer-valued floats: sums are exact in any order.
    rows = [(i, (i * 7) % 13, float((i * 37) % 1000), 0) for i in range(2_000)]
    system = build_cpu_polystore([])
    single = system.register_engine(RelationalEngine("facts1"))
    single.load_table("facts", Table(FACTS, rows))
    system.register_sharded_engine("facts4", RelationalEngine,
                                   partitioner=HashPartitioner(4)) \
        .load_table("facts", Table(FACTS, rows), shard_key="id")
    with system.session(name="contract") as session:
        yield system, single, session


def test_the_aggregate_node_keeps_the_programs_parameters(scan_agg):
    _, single, session = scan_agg
    program = _scan_agg("facts1")
    prepared = session.prepare(program)
    graph = prepared.compilation.graph
    assert prepared.compilation.pass_counts["aggregate_into_scan"] == 1
    [aggregate] = graph.nodes_of_kind("aggregate")
    [(_, root)] = program.output_items()
    assert aggregate.params == dict(root.params)
    [scan] = graph.nodes_of_kind("scan")
    assert scan.annotations[SCAN_AGGREGATE] == (
        tuple(aggregate.params["group_by"]), tuple(aggregate.params["aggregates"]))
    assert aggregate.annotations[FOLDED_INTO_SCAN] is True

    result = prepared.run(refresh=True).output("agg")
    filtered = [row for row in single.scan("facts").to_dicts()
                if row["amount"] > THRESHOLD]
    assert result.to_dicts() == GroupByAggregate(
        TableScan(filtered), list(aggregate.params["group_by"]),
        list(aggregate.params["aggregates"])).execute()

    adapters = {"facts1": adapter_for(single)}
    values: dict = {}
    for node in graph.topological_order():
        values[node.op_id] = adapters[node.engine].execute(
            node, [values[op_id] for op_id in node.inputs])
    walked = values[graph.outputs[0]]
    assert (walked.rows, walked.schema) == (result.rows, result.schema)


def test_the_partitioned_run_records_one_read_over_four_partitions(scan_agg):
    _, _, session = scan_agg
    single = session.prepare(_scan_agg("facts1")).run(refresh=True).output("agg")
    scattered = session.prepare(_scan_agg("facts4")).run(refresh=True)
    records = {record.kind: record for record in scattered.report.records}
    assert records["scan"].details["shards"] == 4
    # The scan folded every partition into the result the aggregate hands on.
    assert records["scan"].rows_out == len(single)
    assert Counter(scattered.output("agg").rows) == Counter(single.rows)
    assert scattered.output("agg").schema == single.schema


def test_a_fused_scan_returns_the_aggregates_result(scan_agg):
    single = scan_agg[1]
    specs = (AggregateSpec("count", None, "n"), AggregateSpec("avg", "amount", "mean"),
             AggregateSpec("sum", "amount", "total"), AggregateSpec("max", "id", "last"))
    over = col("amount") > THRESHOLD
    folded = single.scan("facts", None, over, partial=(("grp",), specs))
    expected = GroupByAggregate(TableScan(single.scan("facts", None, over)), ["grp"],
                                list(specs)).to_table()
    assert (repr(folded.rows), folded.schema) == (repr(expected.rows), expected.schema)


def test_an_aggregating_scan_is_estimated_like_the_aggregate_above_it(scan_agg):
    system = scan_agg[0]
    graph = system.compile(_scan_agg("facts1")).graph
    [scan], [aggregate] = graph.nodes_of_kind("scan"), graph.nodes_of_kind("aggregate")
    unfused = system.compile(_scan_agg("facts1"), options=CompilerOptions(fusion=False))
    [unfused_aggregate] = unfused.graph.nodes_of_kind("aggregate")
    assert scan.estimated_rows == aggregate.estimated_rows \
        == unfused_aggregate.estimated_rows > 1

    overall = DataflowProgram("total")
    overall.output("agg", dataset("facts1").table("facts").aggregate([], n=("count", None)))
    graph = system.compile(overall).graph
    assert [node.estimated_rows for node in graph.topological_order()] == [1, 1]


# -- the same answer as the unfused plan ---------------------------------------------------

T = make_schema(("id", DataType.INT), ("grp", DataType.INT), ("i", DataType.INT),
                ("f", DataType.FLOAT), ("b", DataType.BOOL))
NAN = float("nan")

#: Quarter-valued floats keep every sum exact; NaN is one shared object, as a
#: stored value is, so a NaN group is one group on every route.
_rows = st.lists(st.tuples(
    st.sampled_from([0, 1, 2, None]),
    st.none() | st.integers(-20, 20),
    st.none() | st.just(NAN) | st.integers(-40, 40).map(lambda q: q / 4),
    st.none() | st.booleans(),
), max_size=40)

#: name -> (expression of a literal ``k``, the same in SQL or ``None``).
PREDICATES = {
    "none": (None, None),
    "int": (lambda k: col("i") > k, "i > {k}"),
    # Ids ascend with the insert order: with four rows a page, summaries skip.
    "id-range": (lambda k: col("id") >= 2 * k + 20, "id >= {k2}"),
    # The shard key pinned: a partitioned scan reads one partition's pages.
    "id-point": (lambda k: col("id") == k + 5, "id = {k5}"),
    "float-or-bool": (lambda k: (col("f") <= k / 2) | (col("b") == True),  # noqa: E712
                      None),
    "unknown-column": (lambda k: col("zzz") > k, "zzz > {k}"),
}
FUNCTIONS = ("count", "sum", "avg", "min", "max")


def _program(engine: str, route: str, group_by: list[str], specs: list[tuple],
             predicate: str, k: int, columns: list[str] | None) -> DataflowProgram:
    program = DataflowProgram(f"diff-{engine}-{route}")
    build, text = PREDICATES[predicate]
    if route == "sql":
        items = [*group_by, *(f"{function}({column or '*'}) AS a{j}"
                              for j, (function, column) in enumerate(specs))]
        where = f" WHERE {text.format(k=k, k2=2 * k + 20, k5=k + 5)}" if text else ""
        grouping = f" GROUP BY {', '.join(group_by)}" if group_by else ""
        source = dataset(engine).sql(f"SELECT {', '.join(items)} FROM t{where}{grouping}")
    else:
        source = dataset(engine).table("t", columns)
        if build is not None:
            source = source.filter(build(k))
        source = source.aggregate(group_by, **{
            f"a{j}": spec for j, spec in enumerate(specs)})
    program.output("out", source)
    return program


def _outcome(system, program: DataflowProgram, options: CompilerOptions):
    try:
        table = system.execute(program, options=options).output("out")
    except Exception as exc:  # the two plans must fail alike
        return type(exc)
    return repr(table.rows), table.schema


@settings(max_examples=150, deadline=None)
@given(rows=_rows, sharded=st.booleans(), route=st.sampled_from(["combinator", "sql"]),
       group_by=st.sampled_from([[], ["grp"], ["b"], ["f"], ["grp", "b"], ["nope"]]),
       specs=st.lists(st.tuples(st.sampled_from(FUNCTIONS),
                                st.sampled_from(["i", "f", "b", "nope"])),
                      min_size=1, max_size=4),
       count_all=st.booleans(),
       predicate=st.sampled_from(sorted(PREDICATES)), k=st.integers(-10, 10),
       columns=st.sampled_from([None, ["grp", "i", "f", "b"], ["b", "f", "i"],
                                ["id", "grp", "i", "f", "b", "nope"]]),
       pushdown=st.booleans())
def test_a_fused_plan_answers_as_the_unfused_one(rows, sharded, route, group_by, specs,
                                                  count_all, predicate, k, columns,
                                                  pushdown):
    if route == "sql":
        columns = None
        if PREDICATES[predicate][1] is None:
            predicate = "none"  # no SQL spelling
    specs = specs + [("count", None)] * count_all
    table = Table(T, [(i, *row) for i, row in enumerate(rows)])
    system = build_cpu_polystore([RelationalEngine("one")])
    system.engine("one").load_table("t", table, page_capacity=4)
    system.register_sharded_engine("many", RelationalEngine, 3) \
        .load_table("t", table, shard_key="id", page_capacity=4)
    program = _program("many" if sharded else "one", route, group_by, specs,
                       predicate, k, columns)

    # Without pushdown the filter is still a node, and fusion folds it into
    # the scan only if the scan keeps the columns it tests too.
    build = PREDICATES[predicate][0]
    reads = {*group_by, *(column for _, column in specs if column),
             *(build(k).referenced_columns() if build and not pushdown else ())}
    fusable = not columns or reads <= set(columns)
    fused = CompilerOptions(pushdown=pushdown)
    assert system.compile(program, options=fused).pass_counts["aggregate_into_scan"] \
        == fusable
    assert _outcome(system, program, fused) == \
        _outcome(system, program, CompilerOptions(pushdown=pushdown, fusion=False))


# -- kernels are cached by shape -------------------------------------------------------------


def test_rebinding_the_literal_compiles_nothing_new():
    people = make_schema(("pid", DataType.INT), ("age", DataType.INT),
                         ("score", DataType.FLOAT))
    engine = RelationalEngine("db")
    engine.load_table("patients", Table(people, [(i, 20 + i % 7, float(i))
                                                 for i in range(200)]))
    system = build_cpu_polystore([engine])
    program = DataflowProgram("age_agg")
    program.output("agg", system.dataset("db").table("patients")
                   .filter(col("pid") >= Param("lo", default=0))
                   .aggregate(["age"], n=("count", None), total=("sum", "score")))
    with system.session() as session:
        prepared = session.prepare(program)
        first = prepared.run(lo=3)
        misses = factory.cache_info().misses
        again = [prepared.run(lo=17), prepared.run(lo=3)]
        assert factory.cache_info().misses - misses <= 1
    assert again[1].output("agg").rows == first.output("agg").rows
    assert again[0].output("agg").to_dicts()[0]["n"] == sum(
        1 for i in range(17, 200) if i % 7 == 17 % 7)
    # One row per age left the page walk, not the filtered rows.
    [scan] = [record for record in first.report.records if record.kind == "scan"]
    assert scan.rows_out == 7


# -- the same answer, bit for bit, over sealed pages ------------------------------------

W = make_schema(("id", DataType.INT), ("grp", DataType.INT), ("s", DataType.STRING),
                ("i", DataType.INT), ("f", DataType.FLOAT), ("b", DataType.BOOL))


#: Per column of ``W`` after ``id``: cells the vector fold reads, and odd
#: cells that make it leave a page, or a run, to the row kernel.
_CELLS = [
    (st.integers(0, 3), [st.none(), st.just(True), st.just(2.0)]),
    (st.sampled_from(["x", "y", "z"]), [st.none()]),
    (st.none() | st.integers(-9, 9), [st.integers(-2 ** 60, 2 ** 60),
                                      st.integers(-2 ** 70, 2 ** 70)]),
    (st.none() | st.just(-0.0) | st.floats(allow_nan=False, allow_infinity=False),
     [st.just(NAN), st.integers(-3, 3)]),
    (st.none() | st.booleans(), [st.integers(0, 1)]),
]


@st.composite
def _wide_rows(draw):
    """More rows than pages of four hold, so all but the last page are sealed.
    Each column is clean or, in some tables, holds an odd cell about one time
    in six, so runs of clean pages alternate with odd ones.  Any finite float
    (``-0.0`` too), NaN, ``None``, ints past 2**53 and past int64, bools
    (whose sums are ints) and string group keys all occur."""
    odd = draw(st.sets(st.integers(0, len(_CELLS) - 1)))
    columns = [st.sampled_from([clean] * 12 + others).flatmap(lambda cell: cell)
               if at in odd else clean for at, (clean, others) in enumerate(_CELLS)]
    return draw(st.lists(st.tuples(*columns), min_size=41, max_size=160))


#: name -> predicate of a literal ``k``.
WIDE_PREDICATES = {
    "none": None,
    "float": lambda k: col("f") > k / 3,
    "int": lambda k: col("i") >= k,
    "big-int": lambda k: col("i") < 2 ** 60 + k,
    "both": lambda k: (col("f") <= k * 1.5) & col("i").ne(k),
    "bool": lambda k: col("b") == True,  # noqa: E712
    "mirrored": lambda k: Comparison("<", Literal(k), ColumnRef("f")),
    "float-on-int": lambda k: col("i") > k + 0.5,
    "arithmetic": lambda k: col("f") + 1.0 > k,
}


@settings(max_examples=200, deadline=None)
@given(rows=_wide_rows(), sharded=st.booleans(),
       group_by=st.sampled_from([[], ["grp"], ["s"], ["b"], ["f"], ["i"], ["grp", "s"]]),
       specs=st.lists(st.tuples(st.sampled_from(FUNCTIONS),
                                st.sampled_from(["i", "f", "b", "s", None])),
                      min_size=1, max_size=4),
       predicate=st.sampled_from(sorted(WIDE_PREDICATES)), k=st.integers(-10, 10))
def test_a_fused_plan_answers_bit_for_bit_as_the_unfused_one(rows, sharded, group_by,
                                                             specs, predicate, k):
    specs = [("count", None) if column is None else (function, column)
             for function, column in specs]
    table = Table(W, [(i, *row) for i, row in enumerate(rows)])
    system = build_cpu_polystore([RelationalEngine("one")])
    system.engine("one").load_table("t", table, page_capacity=4)
    system.register_sharded_engine("many", RelationalEngine, 3) \
        .load_table("t", table, shard_key="id", page_capacity=4)
    source = dataset("many" if sharded else "one").table("t")
    if WIDE_PREDICATES[predicate] is not None:
        source = source.filter(WIDE_PREDICATES[predicate](k))
    program = DataflowProgram("wide")
    program.output("out", source.aggregate(group_by, **{
        f"a{j}": spec for j, spec in enumerate(specs)}))
    assert system.compile(program).pass_counts["aggregate_into_scan"] == 1
    assert _outcome(system, program, CompilerOptions()) == \
        _outcome(system, program, CompilerOptions(fusion=False))


@st.composite
def _paged_rows(draw):
    """Pages of four clean rows, the ``f`` cells of some of them all ints: an
    int page in a FLOAT column, which a run of float pages splits around."""
    clean = [cells for cells, _ in _CELLS]
    rows = []
    for ints in draw(st.lists(st.booleans(), min_size=11, max_size=40)):
        rows += draw(st.lists(st.tuples(*clean[:3], st.integers(-3, 3) if ints
                                        else clean[3], clean[4]), min_size=4, max_size=4))
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=_wide_rows() | _paged_rows(), sharded=st.booleans(),
       group_by=st.sampled_from([[], ["grp"], ["s"], ["b"]]),
       specs=st.lists(st.tuples(st.sampled_from(("count", "sum", "avg")),
                                st.sampled_from(["i", "f", "b", "s", None])),
                      min_size=1, max_size=4),
       predicate=st.sampled_from(sorted(WIDE_PREDICATES)), k=st.integers(-10, 10))
def test_a_fused_plan_over_runs_of_three_pages_answers_bit_for_bit(rows, sharded, group_by,
                                                                   specs, predicate, k):
    # Runs of three pages: a drawn table spans several runs, so an int page
    # splitting a FLOAT column's run, a group first seen in a later run, a
    # string key whose pages list their keys in other orders and a float sum
    # carried from one run into the next all come up without being placed.
    # ``_paged_rows`` draws the int pages; the keys and functions are the
    # ones the vector fold takes, so most drawn plans reach it.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "RUN", 3)
        test_a_fused_plan_answers_bit_for_bit_as_the_unfused_one.hypothesis.inner_test(
            rows, sharded, group_by, specs, predicate, k)
