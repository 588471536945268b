"""A read of a partitioned table is one fold over its one heap.

The fused plan (the aggregate folded into the scan's page walk) and the
unfused one (the scan's rows, then the aggregate) both read the partitions'
pages in heap order as one left fold, so they agree exactly: rows, group
order, schema, and every float sum to the bit.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataflowProgram, col, dataset
from repro.cluster import HashPartitioner
from repro.compiler import CompilerOptions
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.stores import RelationalEngine
from repro.stores.relational.operators import RUN

SCHEMA = make_schema(("id", DataType.INT), ("grp", DataType.STRING),
                     ("amount", DataType.FLOAT), ("k", DataType.INT))
SHARDS = 4

#: Sevenths are not exact in binary, so a sum's value depends on its order; an
#: int now and then splits a run of float pages (and is folded by the rows).
_rows = st.lists(st.tuples(
    st.sampled_from(["a", "b", "c", None]),
    st.none() | st.integers(-500, 500).map(lambda q: q / 7) | st.integers(-3, 3),
    st.none() | st.integers(-5, 5),
), max_size=150)

PREDICATES = {
    "none": None,
    "amount": lambda: col("amount") > 0.5,
    "k": lambda: col("k") >= 1,
    "grp": lambda: col("grp") == "a",
}


def _system(rows: list[tuple], page_capacity: int):
    system = build_cpu_polystore([])
    system.register_sharded_engine(
        "many", RelationalEngine, partitioner=HashPartitioner(SHARDS)).load_table(
        "t", Table(SCHEMA, [(i, *row) for i, row in enumerate(rows)]),
        shard_key="id", page_capacity=page_capacity)
    return system


def _program(group_by: list[str], specs: list[tuple], predicate: str) -> DataflowProgram:
    source = dataset("many").table("t")
    if PREDICATES[predicate] is not None:
        source = source.filter(PREDICATES[predicate]())
    program = DataflowProgram("sharded-fold")
    program.output("out", source.aggregate(group_by, **{
        f"a{j}": spec for j, spec in enumerate(specs)}))
    return program


def _assert_fused_answers_as_unfused(system, program: DataflowProgram) -> None:
    assert system.compile(program).pass_counts["aggregate_into_scan"] == 1
    fused = system.execute(program).output("out")
    unfused = system.execute(program, options=CompilerOptions(fusion=False)).output("out")
    assert repr(fused.rows) == repr(unfused.rows)
    assert fused.schema == unfused.schema


@settings(max_examples=100, deadline=None)
@given(rows=_rows, page_capacity=st.sampled_from([2, 3, 5]),
       group_by=st.sampled_from([[], ["grp"], ["k"]]),
       specs=st.lists(st.tuples(st.sampled_from(["count", "sum", "avg", "min", "max"]),
                                st.sampled_from(["amount", "k"])), min_size=1, max_size=3),
       predicate=st.sampled_from(sorted(PREDICATES)))
def test_a_fused_sharded_read_answers_as_the_unfused_one(rows, page_capacity, group_by,
                                                          specs, predicate):
    system = _system(rows, page_capacity)
    _assert_fused_answers_as_unfused(system, _program(group_by, specs, predicate))


def test_more_sealed_pages_than_a_run_fold_in_runs_on_every_partition():
    rows = [(f"g{i % 3}", (i % 89) / 7, i % 4) for i in range(SHARDS * 2 * (RUN + 10))]
    system = _system(rows, 2)
    pages = system.engine("many")._stored("t").heap._pages
    assert all(sum(page.partitions(0, SHARDS) == {shard} for page in pages) > RUN + 1
               for shard in range(SHARDS))
    for group_by in ([], ["grp"], ["k"]):
        _assert_fused_answers_as_unfused(system, _program(
            group_by, [("count", None), ("sum", "amount")], "amount"))


def test_totals_are_equal_at_one_two_and_four_shards():
    schema = make_schema(("order_id", DataType.INT), ("customer", DataType.STRING),
                         ("amount", DataType.FLOAT))
    rows = [(i, f"c{i % 16}", float((i * 37) % 997)) for i in range(6000)]
    totals = []
    for shards in (1, 2, 4):
        system = build_cpu_polystore([])
        system.register_sharded_engine(
            "salesdb", RelationalEngine, partitioner=HashPartitioner(shards)) \
            .load_table("sales", Table(schema, rows))
        program = DataflowProgram("sharded-scan-agg")
        program.output("result", dataset("salesdb").sql(
            "SELECT customer, sum(amount) AS total, count(*) AS n FROM sales "
            "WHERE amount > 100.0 GROUP BY customer"))
        result = system.execute(program).output("result").to_dicts()
        totals.append({row["customer"]: (row["n"], row["total"]) for row in result})
    assert totals[0] and len(totals[0]) == 16
    for other in totals[1:]:
        assert other.keys() == totals[0].keys()
        for customer, (n, total) in other.items():
            assert n == totals[0][customer][0]
            assert math.isclose(total, totals[0][customer][1], rel_tol=1e-9)
