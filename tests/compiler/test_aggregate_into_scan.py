"""A scan that feeds a group-aggregate aggregates in its own page walk.

``fold_aggregates_into_scans`` lets the scan return one partial row per group
and the aggregate combine the partials.  The fused plan is held to three
things here: the shape a reader of the compiled graph relies on (one
``aggregate`` node with the program's parameters, the sharded records'
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
from repro.ir.nodes import COMBINE_PARTIALS, PARTIAL_AGGREGATE
from repro.middleware.adapters import adapter_for
from repro.stores import RelationalEngine
from repro.stores.relational.kernels import factory
from repro.stores.relational.operators import GroupByAggregate, TableScan

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
    assert PARTIAL_AGGREGATE in scan.annotations and COMBINE_PARTIALS in aggregate.annotations

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


def test_the_sharded_run_records_a_fan_out_and_a_combine(scan_agg):
    _, _, session = scan_agg
    single = session.prepare(_scan_agg("facts1")).run(refresh=True).output("agg")
    scattered = session.prepare(_scan_agg("facts4")).run(refresh=True)
    records = {record.kind: record for record in scattered.report.records}
    assert records["scan"].details["shards"] == 4
    assert records["aggregate"].details["merge"] == "aggregate_combine"
    assert Counter(scattered.output("agg").rows) == Counter(single.rows)
    assert scattered.output("agg").schema == single.schema


def test_a_partial_scan_is_estimated_like_the_aggregate_above_it(scan_agg):
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
    # The shard key pinned: a sharded scan is routed to one shard.
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
    # One partial row per age left the page walk, not the filtered rows.
    [scan] = [record for record in first.report.records if record.kind == "scan"]
    assert scan.rows_out == 7
