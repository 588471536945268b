"""Shard pruning: a predicate naming a partitioned table's shard key reads
only the sealed pages whose partition summary holds the key's partitions.

Counted in pages, from what ``HeapStorage.select`` returns (the
``heap_calls`` fixture): there is one heap, so a read contacts no shard, it
examines pages.
"""

from __future__ import annotations

import pytest

from repro import DataflowProgram, col
from repro.compiler import CompilerOptions
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, make_schema
from repro.eide import dataset
from repro.stores import RelationalEngine
from repro.stores.relational.partition import partition_of

NUM_SHARDS = 4


@pytest.fixture
def sales_system():
    system = build_cpu_polystore([])
    engine = system.register_sharded_engine("salesdb", RelationalEngine, NUM_SHARDS)
    schema = make_schema(("customer_id", DataType.INT), ("amount", DataType.FLOAT))
    engine.create_table("sales", schema, shard_key="customer_id", page_capacity=32)
    # Each page holds every customer of its partition: bounds rule none out.
    engine.insert("sales", [(i % 50, float(i % 97)) for i in range(3_200)])
    return system, engine


def _pages(engine, keys=None) -> tuple[int, int]:
    """The pages a read of ``keys`` may examine — every sealed page whose
    summary holds one of their partitions, and the open last page (all
    pages, without keys) — and the pages there are."""
    pages = engine._stored("sales").heap._pages
    if keys is None:
        return len(pages), len(pages)
    wanted = {partition_of(key, NUM_SHARDS) for key in keys}
    return sum(1 for page in pages[:-1]
               if page.partitions(0, NUM_SHARDS) & wanted) + 1, len(pages)


class TestRelationalPruning:
    def _keyed_program(self, predicate) -> DataflowProgram:
        program = DataflowProgram("keyed")
        program.output("rows",
                       dataset("salesdb").table("sales").filter(predicate))
        return program

    def test_shard_key_equality_examines_its_partitions_pages(self, sales_system, heap_calls):
        system, engine = sales_system
        result = system.execute(self._keyed_program(col("customer_id") == 7))
        select = heap_calls.last("select")
        assert (select.pages_examined, select.pages) == _pages(engine, [7])
        assert select.pages_examined < select.pages / 2
        rows = result.output("rows").to_dicts()
        assert len(rows) == 64 and all(row["customer_id"] == 7 for row in rows)
        record = [r for r in result.report.records if r.kind == "scan"][0]
        assert record.details["shards"] == 1

    def test_in_list_examines_its_partitions_pages(self, sales_system, heap_calls):
        system, engine = sales_system
        keys = [7, 8, 9]
        result = system.execute(self._keyed_program(col("customer_id").isin(*keys)))
        select = heap_calls.last("select")
        assert (select.pages_examined, select.pages) == _pages(engine, keys)
        assert sorted({row["customer_id"] for row in
                       result.output("rows").to_dicts()}) == keys
        record = [r for r in result.report.records if r.kind == "scan"][0]
        assert record.details["shards"] == len({partition_of(k, NUM_SHARDS) for k in keys})

    def test_non_key_predicate_examines_every_page(self, sales_system, heap_calls):
        system, engine = sales_system
        result = system.execute(self._keyed_program(col("amount") >= 0.0))
        select = heap_calls.last("select")
        assert (select.pages_examined, select.pages) == _pages(engine)
        assert len(result.output("rows")) == 3_200
        record = [r for r in result.report.records if r.kind == "scan"][0]
        assert record.details["shards"] == NUM_SHARDS

    def test_pruning_requires_pushdown(self, sales_system, heap_calls):
        # With pushdown off the filter stays separate, so the scan reads every
        # page — the ablation the benchmark measures.
        system, engine = sales_system
        result = system.execute(self._keyed_program(col("customer_id") == 7),
                                options=CompilerOptions(pushdown=False))
        select = heap_calls.last("select")
        assert (select.pages_examined, select.pages) == _pages(engine)
        assert all(row["customer_id"] == 7
                   for row in result.output("rows").to_dicts())

    def test_indexed_shard_key_becomes_an_index_seek_of_one_partition(self, sales_system):
        system, engine = sales_system
        engine.create_index("sales", "customer_id")
        result = system.execute(self._keyed_program(col("customer_id") == 7))
        record = [r for r in result.report.records
                  if r.kind == "index_seek"][0]
        assert record.details["shards"] == 1
        rows = result.output("rows").to_dicts()
        assert rows and all(row["customer_id"] == 7 for row in rows)

    def test_non_key_index_seek_still_names_one_partition(self, sales_system):
        # The index is on a non-key column, so absorption converts the scan
        # to an index_seek on that column — but the retained predicate still
        # pins the shard key, which allows one partition.
        system, engine = sales_system
        engine.create_index("sales", "amount")
        program = DataflowProgram("both")
        program.output("rows", dataset("salesdb").table("sales")
                       .filter((col("customer_id") == 7) & (col("amount") == 30.0)))
        result = system.execute(program)
        record = [r for r in result.report.records
                  if r.kind == "index_seek"][0]
        assert record.details["shards"] == 1
        rows = result.output("rows").to_dicts()
        assert all(row["customer_id"] == 7 and row["amount"] == 30.0
                   for row in rows)

    def test_output_name_survives_absorption_for_shared_datasets(self, sales_system):
        # Executing the same dataset tail through two programs must resolve
        # each program's own output name even though absorption replaces the
        # named filter node with the leaf read.
        system, engine = sales_system
        ds = dataset("salesdb").table("sales").filter(col("customer_id") == 7)
        one = DataflowProgram("one")
        one.output("a", ds)
        two = DataflowProgram("two")
        two.output("b", ds)
        assert len(system.execute(one).output("a")) > 0
        assert len(system.execute(two).output("b")) > 0
        assert len(system.execute(one).output("a")) > 0  # unchanged by 'two'

    def test_results_match_an_unpartitioned_engine(self, sales_system):
        system, engine = sales_system
        plain_system = build_cpu_polystore([])
        plain = RelationalEngine("salesdb")
        schema = make_schema(("customer_id", DataType.INT),
                             ("amount", DataType.FLOAT))
        plain.load_table("sales", engine.scan("sales"))
        assert plain.table_schema("sales").names == schema.names
        plain_system.register_engine(plain)
        program = self._keyed_program((col("customer_id") == 7)
                                      & (col("amount") > 10.0))
        sharded = system.execute(program).output("rows").to_dicts()
        unsharded = plain_system.execute(program).output("rows").to_dicts()
        key = lambda row: sorted(row.items())  # noqa: E731
        assert sorted(map(key, sharded)) == sorted(map(key, unsharded))


@pytest.mark.parametrize("predicate", [col("k") == 1, col("k") == True,  # noqa: E712
                                       col("k").isin(1, 7), col("k") == 0.0])
def test_a_bool_key_is_found_by_the_number_it_equals(predicate):
    # At 5 partitions ``True`` and ``1`` (``False`` and ``0``) key apart.
    assert partition_of(True, 5) != partition_of(1, 5)
    assert partition_of(False, 5) != partition_of(0, 5)
    schema = make_schema(("k", DataType.INT), ("v", DataType.INT))
    rows = [(True, 0), (False, 1)] + [(i, i) for i in range(2, 40)]
    partitioned = RelationalEngine("db", partitions=5)
    partitioned.create_table("t", schema, page_capacity=2)
    partitioned.insert("t", rows)
    plain = RelationalEngine("db")
    plain.load_table("t", partitioned.scan("t"), page_capacity=2)
    expected = plain.scan("t", predicate=predicate).rows
    assert expected and partitioned.scan("t", predicate=predicate).rows == expected


#: A predicate on a partitioned table's key -> the same rows an unpartitioned
#: scan finds, whether the key's partitions rule pages out or not.
KEYED_PREDICATES = {
    "equality": col("k") == 7,
    "equality-by-method": col("k").eq(7),
    "an-equal-float": col("k") == 7.0,
    "an-absent-key": col("k") == 999,
    "in-list": col("k").isin(3, 8, 41),
    "in-list-with-an-absent-key": col("k").isin(3, 999),
    "key-then-another-column": (col("k") == 7) & (col("v") > 100),
    "another-column-then-key": (col("v") > 100) & (col("k") == 7),
    "either-of-two-keys": (col("k") == 7) | (col("k") == 8),
    "not-the-key": ~(col("k") == 7),
    "a-key-range": (col("k") >= 10) & (col("k") < 14),
    "a-string-literal": col("k") == "7",
    "a-null-key": col("k").is_null(),
}


@pytest.mark.parametrize("partitions", [2, 7])
@pytest.mark.parametrize("predicate", KEYED_PREDICATES)
def test_a_key_predicate_finds_what_an_unpartitioned_scan_finds(predicate, partitions):
    schema = make_schema(("k", DataType.INT), ("v", DataType.INT))
    rows = [(i % 50 if i % 23 else None, i) for i in range(400)]
    partitioned = RelationalEngine("db", partitions=partitions)
    partitioned.create_table("t", schema, page_capacity=8)
    partitioned.insert("t", rows)
    plain = RelationalEngine("db")
    plain.load_table("t", partitioned.scan("t"), page_capacity=8)
    expected = plain.scan("t", predicate=KEYED_PREDICATES[predicate]).rows
    assert partitioned.scan("t", predicate=KEYED_PREDICATES[predicate]).rows == expected
