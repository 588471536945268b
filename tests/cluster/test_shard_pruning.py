"""Shard pruning: key predicates contact only the owning shard subset.

Contact is asserted two ways: through the executor report's
``contacted_shards`` detail, and through a spy counting calls of each shard
engine's read methods (a shard none of them was called on was never touched).
"""

from __future__ import annotations

import pytest

from repro import DataflowProgram, col
from repro.compiler import CompilerOptions
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, make_schema
from repro.eide import dataset
from repro.stores import KeyValueEngine, RelationalEngine, TextEngine, TimeseriesEngine

NUM_SHARDS = 4


#: The engine methods an adapter reads a shard's data through.
READS = ("scan", "index_lookup", "range_lookup", "execute_sql", "range_columns",
         "window_aggregate", "summarize_many", "get", "multi_get", "range",
         "search", "keyword_features", "keyword_counts", "documents_matching")


def _contacts(engine, action) -> tuple[list[int], object]:
    """Indexes of shards a read method was called on while ``action`` ran."""
    calls = [0] * engine.num_shards

    def counted(index, method):
        def read(*args, **kwargs):
            calls[index] += 1
            return method(*args, **kwargs)
        return read

    with pytest.MonkeyPatch.context() as patch:
        for index, shard in enumerate(engine.shards):
            for name in READS:
                if hasattr(shard, name):
                    patch.setattr(shard, name, counted(index, getattr(shard, name)))
        result = action()
    return [i for i, n in enumerate(calls) if n], result


@pytest.fixture
def sales_system():
    system = build_cpu_polystore([])
    engine = system.register_sharded_engine("salesdb", RelationalEngine, NUM_SHARDS)
    schema = make_schema(("customer_id", DataType.INT), ("amount", DataType.FLOAT))
    engine.create_table("sales", schema, shard_key="customer_id")
    engine.insert("sales", [(i % 50, float(i % 97)) for i in range(800)])
    return system, engine


class TestRelationalPruning:
    def _keyed_program(self, predicate) -> DataflowProgram:
        program = DataflowProgram("keyed")
        program.output("rows",
                       dataset("salesdb").table("sales").filter(predicate))
        return program

    def test_shard_key_equality_contacts_one_shard(self, sales_system):
        system, engine = sales_system
        owner = engine.partitioner.shard_for(7)
        contacted, result = _contacts(
            engine, lambda: system.execute(self._keyed_program(
                col("customer_id") == 7)))
        assert contacted == [owner]
        rows = result.output("rows").to_dicts()
        assert rows and all(row["customer_id"] == 7 for row in rows)
        record = [r for r in result.report.records if r.kind == "scan"][0]
        assert record.details["fan_out"] == "routed"
        assert record.details["contacted_shards"] == [engine.shards[owner].name]

    def test_in_list_contacts_owning_subset(self, sales_system):
        system, engine = sales_system
        keys = [7, 8, 9]
        owners = sorted({engine.partitioner.shard_for(k) for k in keys})
        contacted, result = _contacts(
            engine, lambda: system.execute(self._keyed_program(
                col("customer_id").isin(*keys))))
        assert contacted == owners
        assert sorted({row["customer_id"] for row in
                       result.output("rows").to_dicts()}) == keys

    def test_non_key_predicate_fans_out_to_every_shard(self, sales_system):
        system, engine = sales_system
        contacted, result = _contacts(
            engine, lambda: system.execute(self._keyed_program(
                col("amount") > 90.0)))
        assert contacted == list(range(NUM_SHARDS))
        assert all(row["amount"] > 90.0
                   for row in result.output("rows").to_dicts())

    def test_pruning_requires_pushdown(self, sales_system):
        # With pushdown off the filter stays separate, so the scan must
        # broadcast — the ablation the benchmark measures.
        system, engine = sales_system
        contacted, result = _contacts(
            engine, lambda: system.execute(
                self._keyed_program(col("customer_id") == 7),
                options=CompilerOptions(pushdown=False)))
        assert contacted == list(range(NUM_SHARDS))
        assert all(row["customer_id"] == 7
                   for row in result.output("rows").to_dicts())

    def test_indexed_shard_key_becomes_routed_index_seek(self, sales_system):
        system, engine = sales_system
        engine.create_index("sales", "customer_id")
        owner = engine.partitioner.shard_for(7)
        contacted, result = _contacts(
            engine, lambda: system.execute(self._keyed_program(
                col("customer_id") == 7)))
        assert contacted == [owner]
        record = [r for r in result.report.records
                  if r.kind == "index_seek"][0]
        assert record.details["fan_out"] == "routed"
        rows = result.output("rows").to_dicts()
        assert rows and all(row["customer_id"] == 7 for row in rows)

    def test_non_key_index_seek_still_prunes_on_shard_key(self, sales_system):
        # The index is on a non-key column, so absorption converts the scan
        # to an index_seek on that column — but the retained predicate still
        # pins the shard key, so the seek must route to the owning shard.
        system, engine = sales_system
        engine.create_index("sales", "amount")
        owner = engine.partitioner.shard_for(7)
        program = DataflowProgram("both")
        program.output("rows", dataset("salesdb").table("sales")
                       .filter((col("customer_id") == 7) & (col("amount") == 30.0)))
        contacted, result = _contacts(engine, lambda: system.execute(program))
        assert contacted == [owner]
        record = [r for r in result.report.records
                  if r.kind == "index_seek"][0]
        assert record.details["fan_out"] == "routed"
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

    def test_results_match_unsharded_engine(self, sales_system):
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


class TestTimeseriesPruning:
    def test_series_key_predicate_contacts_owner_only(self):
        system = build_cpu_polystore([])
        engine = system.register_sharded_engine("monitors", TimeseriesEngine,
                                                NUM_SHARDS)
        for pid in range(32):
            engine.append_many(f"hr/{pid}",
                               [(float(t), float(pid + t)) for t in range(6)])
        program = DataflowProgram("vitals")
        program.output("one", dataset("monitors").timeseries("hr/")
                       .filter(col("pid") == 13))
        owner = engine.partitioner.shard_for("hr/13")
        contacted, result = _contacts(engine, lambda: system.execute(program))
        assert contacted == [owner]
        assert [row["pid"] for row in result.output("one").to_dicts()] == [13]


class TestKeyValuePruning:
    def test_key_equality_on_prefix_lookup_contacts_owner_only(self):
        system = build_cpu_polystore([])
        engine = system.register_sharded_engine("profiles", KeyValueEngine,
                                                NUM_SHARDS)
        for uid in range(32):
            engine.put(f"user/{uid}", {"uid": uid, "tier": uid % 3})
        program = DataflowProgram("profile")
        program.output("u", dataset("profiles").kv(key_prefix="user/")
                       .filter(col("key") == 21))
        owner = engine.partitioner.shard_for("user/21")
        contacted, result = _contacts(engine, lambda: system.execute(program))
        assert contacted == [owner]
        assert [row["uid"] for row in result.output("u").to_dicts()] == [21]


class TestTextPruning:
    def test_doc_id_predicate_contacts_owner_only(self):
        system = build_cpu_polystore([])
        engine = system.register_sharded_engine("notes", TextEngine, NUM_SHARDS)
        for pid in range(24):
            terms = "sepsis" if pid % 2 else "stable recovery"
            engine.add_document(f"note/{pid}", f"patient note {terms}")
        program = DataflowProgram("notes")
        program.output("features", dataset("notes").text()
                       .keyword_features(["sepsis"], doc_prefix="note/",
                                         id_column="pid")
                       .filter(col("pid") == 5))
        owner = engine.partitioner.shard_for("note/5")
        contacted, result = _contacts(engine, lambda: system.execute(program))
        assert contacted == [owner]
        rows = result.output("features").to_dicts()
        assert [row["pid"] for row in rows] == [5]
        assert rows[0]["kw_sepsis"] > 0
