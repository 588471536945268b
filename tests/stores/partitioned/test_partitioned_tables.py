"""A partitioned table: one heap, one changelog, one set of version counters.

A table created with a shard key on a ``RelationalEngine(name, partitions=n)``
lands each insert batch stable-sorted by the key's partition, so a single
load reads back partition by partition; every read and write is the one
engine's, its versions only move forward, and the partitions and shard key a
durable data directory records are the ones that serve after a restart.
"""

from __future__ import annotations

import pytest

from repro import DataflowProgram, PolystorePlusPlus, col, dataset
from repro.compiler.pipeline import CompilerOptions
from repro.core import build_accelerated_polystore, build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import ConfigurationError, StorageError
from repro.stores import KeyValueEngine, RelationalEngine
from repro.stores.changelog import PageEntry, table_scope
from repro.stores.relational.partition import partition_of

ROWS = [(i, f"c{i % 5}", float(i % 9)) for i in range(80)]


def _schema():
    return make_schema(("order_id", DataType.INT), ("customer", DataType.STRING),
                       ("amount", DataType.FLOAT))


def _deploy(partitions: int = 4):
    system = build_cpu_polystore([])
    engine = system.register_sharded_engine("ordersdb", RelationalEngine, partitions)
    engine.load_table("orders", Table(_schema(), ROWS))
    return system, engine


def _count_program():
    program = DataflowProgram("count")
    program.output("result", dataset("ordersdb").sql(
        "SELECT count(*) AS n, sum(amount) AS total FROM orders"))
    return program


def _partitions_read(engine, table: str = "orders", key: int = 0) -> list[int]:
    """The partition of each row, in scan order."""
    return [partition_of(row[key], engine.partitions) for row in engine.scan(table).rows]


class TestConstruction:
    def test_the_shim_builds_one_partitioned_engine(self):
        system = build_accelerated_polystore([])
        engine = system.register_sharded_engine("ordersdb", RelationalEngine, 2)
        assert type(engine) is RelationalEngine and engine.partitions == 2
        assert system.engine("ordersdb") is engine
        engine.load_table("orders", Table(_schema(), [(1, "a", 2.0)]))
        assert system.catalog.table_rows("ordersdb", "orders") == 1

    def test_only_a_relational_engine_partitions(self):
        system = build_cpu_polystore([])
        with pytest.raises(ConfigurationError):
            system.register_sharded_engine("profiles", KeyValueEngine, 3)
        with pytest.raises(ConfigurationError):
            system.register_sharded_engine("db", RelationalEngine)

    def test_unknown_shard_key_rejected(self):
        engine = RelationalEngine("db", partitions=2)
        with pytest.raises(StorageError):
            engine.create_table("orders", _schema(), shard_key="nope")
        assert not engine.has_table("orders")

    def test_a_partitioned_engine_registers_like_any_engine(self):
        engine = RelationalEngine("ordersdb", partitions=3)
        system = build_cpu_polystore([engine])
        engine.load_table("orders", Table(_schema(), ROWS))
        assert system.catalog.table_rows("ordersdb", "orders") == 80
        totals = system.execute(_count_program()).output("result").to_dicts()[0]
        assert totals == {"n": 80, "total": sum(row[2] for row in ROWS)}

    def test_one_partition_partitions_nothing_even_with_a_shard_key(self):
        engine = RelationalEngine("db")
        engine.create_table("orders", _schema(), shard_key="customer")
        engine.insert("orders", ROWS)
        assert engine._stored("orders").heap.partitioning is None
        assert engine.partitions_read("orders") is None
        assert engine.scan("orders").rows == ROWS
        with pytest.raises(StorageError):
            engine.update_rows("orders", col("order_id") == 1, {"customer": "c0"})


class TestPlacement:
    def test_a_single_load_reads_back_partition_by_partition(self):
        _, engine = _deploy(3)
        assert _partitions_read(engine) == sorted(_partitions_read(engine))
        assert set(_partitions_read(engine)) == {0, 1, 2}
        # Within a partition, the rows keep the order they were written in.
        assert engine.scan("orders").rows == sorted(
            ROWS, key=lambda row: partition_of(row[0], 3))

    def test_the_shard_key_defaults_to_the_first_column(self):
        engine = RelationalEngine("db", partitions=2)
        engine.create_table("orders", _schema())
        assert engine._stored("orders").shard_key == "order_id"
        plain = RelationalEngine("db")
        plain.create_table("orders", _schema())
        assert plain._stored("orders").heap.partitioning is None

    def test_a_declared_shard_key_groups_its_rows(self):
        engine = RelationalEngine("db", partitions=2)
        engine.create_table("orders", _schema(), shard_key="customer")
        engine.insert_dicts("orders", [
            {"order_id": i, "customer": f"c{i % 5}", "amount": 1.0} for i in range(20)])
        assert _partitions_read(engine, key=1) == sorted(_partitions_read(engine, key=1))

    def test_create_table_arguments_hold_on_a_partitioned_table(self):
        engine = RelationalEngine("ordersdb", partitions=3)
        engine.create_table("orders", _schema(), page_capacity=4)
        engine.insert("orders", ROWS)
        heap = engine._stored("orders").heap
        assert heap.page_capacity == 4 and heap.partitioning == (0, 3)
        assert all(len(page.rows) <= 4 for page in heap._pages)

    def test_an_index_answers_as_a_scan(self):
        _, engine = _deploy(3)
        engine.create_index("orders", "customer")
        assert engine.has_index("orders", "customer")
        for customer in ("c0", "c3", "zz"):
            assert engine.index_lookup("orders", "customer", customer).rows == \
                engine.scan("orders", predicate=col("customer") == customer).rows

    def test_delete_rows_returns_what_it_deleted(self):
        _, engine = _deploy(4)
        deleted = engine.delete_rows("orders", col("customer") == "c2")
        assert sorted(deleted) == sorted(row for row in ROWS if row[1] == "c2")
        assert len(engine.scan("orders")) == 80 - len(deleted)
        assert "c2" not in engine.scan("orders").column("customer")

    def test_update_rows_changes_rows_in_place(self):
        _, engine = _deploy(4)
        placement = engine.scan("orders").column("order_id")
        pairs = engine.update_rows("orders", col("amount") == 0.0, {"amount": -1.0})
        assert sorted(old for old, _ in pairs) == sorted(
            row for row in ROWS if row[2] == 0.0)
        assert all(new[2] == -1.0 and new[:2] == old[:2] for old, new in pairs)
        assert engine.scan("orders").column("order_id") == placement
        assert sorted(engine.scan("orders").rows) == sorted(
            (i, c, -1.0 if a == 0.0 else a) for i, c, a in ROWS)

    def test_shard_key_update_is_refused_and_changes_nothing(self):
        _, engine = _deploy(2)
        version = engine.data_version
        with pytest.raises(StorageError):
            engine.update_rows("orders", col("order_id") == 3, {"order_id": 300})
        assert sorted(engine.scan("orders").rows) == sorted(ROWS)
        assert engine.data_version == version

    def test_a_recreated_table_partitions_on_its_new_shard_key(self):
        _, engine = _deploy(3)
        engine.drop_table("orders")
        assert not engine.has_table("orders")
        engine.create_table("orders", _schema(), shard_key="customer")
        engine.insert("orders", ROWS)
        assert _partitions_read(engine, key=1) == sorted(_partitions_read(engine, key=1))

    def test_snapshot_scan_pairs_the_rows_with_the_log_head(self):
        _, engine = _deploy(3)
        table, head = engine.snapshot_scan("orders")
        assert head == engine.changelog.latest_seq
        assert sorted(table.rows) == sorted(ROWS)
        engine.insert("orders", [(500, "cZ", 1.0)])
        table, later = engine.snapshot_scan("orders", ["order_id"])
        assert later == head + 1
        assert sorted(table.column("order_id")) == list(range(80)) + [500]

    def test_each_insert_batch_lands_partition_by_partition(self):
        engine = RelationalEngine("db", partitions=3)
        engine.create_table("orders", _schema())
        batches = [ROWS[:30], ROWS[30:35], ROWS[35:]]
        for batch in batches:
            engine.insert("orders", batch)
        assert engine.scan("orders").rows == [
            row for batch in batches
            for row in sorted(batch, key=lambda row: partition_of(row[0], 3))]

    def test_insert_dicts_lands_as_insert_does(self):
        engine = RelationalEngine("db", partitions=4)
        engine.create_table("orders", _schema())
        engine.insert_dicts("orders", [
            {"order_id": i, "customer": c, "amount": a} for i, c, a in ROWS])
        _, loaded = _deploy(4)
        assert engine.scan("orders").rows == loaded.scan("orders").rows

    def test_fewer_rows_than_partitions_leave_the_rest_empty(self):
        engine = RelationalEngine("db", partitions=8)
        engine.create_table("orders", _schema())
        engine.insert("orders", ROWS[:2])
        assert sorted(engine.scan("orders").rows) == ROWS[:2]
        assert engine.scan("orders", predicate=col("order_id") == 1).rows == [ROWS[1]]
        assert engine.scan("orders", predicate=col("order_id") == 5).rows == []
        assert engine.partitions_read("orders", col("order_id") == 5) == 1

    def test_table_statistics_count_every_partition(self):
        _, engine = _deploy(4)
        engine.create_index("orders", "customer")
        stats = engine.table_statistics("orders")
        assert stats["rows"] == 80
        assert stats["pages"] == len(engine._stored("orders").heap._pages)
        assert stats["hash_indexes"] == ["customer"]

    def test_a_rewritten_table_stays_partitioned(self):
        _, engine = _deploy(3)
        engine.delete_rows("orders", col("amount") == 0.0)
        engine.update_rows("orders", col("amount") == 1.0, {"amount": 2.0})
        assert engine._stored("orders").heap.partitioning == (0, 3)
        engine.insert("orders", [(900 + i, "cN", 1.0) for i in range(6)])
        tail = engine.scan("orders").rows[-6:]
        assert [partition_of(row[0], 3) for row in tail] == sorted(
            partition_of(row[0], 3) for row in tail)
        assert engine.scan("orders", predicate=col("order_id") == 903).rows == [
            (903, "cN", 1.0)]
        assert engine.partitions_read("orders", col("order_id") == 903) == 1


def _with_index(column: str, kind: str, read):
    def reads(engine):
        engine.create_index("orders", column, kind=kind)
        return read(engine)
    return reads


#: An engine read -> its rows on a partitioned table are those of an
#: unpartitioned one (in some order, unless the read orders them).
ENGINE_READS = {
    "scan-columns": lambda e: e.scan("orders", ["customer", "amount"]).rows,
    "scan-key-predicate": lambda e: e.scan(
        "orders", predicate=col("order_id").isin(1, 2, 3, 99)).rows,
    "snapshot-scan": lambda e: e.snapshot_scan("orders")[0].rows,
    "hash-index-on-key": _with_index(
        "order_id", "hash", lambda e: e.index_lookup("orders", "order_id", 17).rows),
    "sorted-index-lookup": _with_index(
        "customer", "sorted", lambda e: e.index_lookup("orders", "customer", "c3").rows),
    "sorted-index-range": _with_index(
        "amount", "sorted", lambda e: e.range_lookup("orders", "amount", 2.0, 5.0).rows),
    "sql-group-by": lambda e: e.execute_sql(
        "SELECT customer, count(*) AS n FROM orders WHERE order_id < 50 "
        "GROUP BY customer").rows,
}


@pytest.mark.parametrize("read", ENGINE_READS)
def test_an_engine_read_answers_as_on_an_unpartitioned_table(read):
    _, engine = _deploy(4)
    plain = RelationalEngine("ordersdb")
    plain.load_table("orders", Table(_schema(), ROWS))
    expected = ENGINE_READS[read](plain)
    assert expected and sorted(ENGINE_READS[read](engine)) == sorted(expected)


def test_top_k_answers_as_on_an_unpartitioned_table():
    _, engine = _deploy(4)
    plain = RelationalEngine("ordersdb")
    plain.load_table("orders", Table(_schema(), ROWS))
    for descending in (True, False):
        assert engine.top_k("orders", "order_id", 5, descending=descending).rows == \
            plain.top_k("orders", "order_id", 5, descending=descending).rows


class TestVersions:
    def test_data_version_strictly_increases_with_each_write_kind(self):
        _, engine = _deploy(3)
        observed = [engine.data_version]
        engine.insert("orders", [(1000, "cX", 3.0)])
        observed.append(engine.data_version)
        engine.update_rows("orders", col("order_id") == 1000, {"amount": 4.0})
        observed.append(engine.data_version)
        engine.delete_rows("orders", col("order_id") == 1000)
        observed.append(engine.data_version)
        engine.create_table("side", _schema())
        observed.append(engine.data_version)
        engine.drop_table("side")
        observed.append(engine.data_version)
        assert observed == sorted(set(observed))

    def test_scoped_versions_never_repeat_under_a_write_stream(self):
        _, engine = _deploy(4)
        scope = table_scope("orders")
        observed = [engine.data_version_for(scope)]
        for i in range(12):
            engine.insert("orders", [(1000 + i, "cX", 1.0)])
            observed.append(engine.data_version_for(scope))
        assert observed == sorted(set(observed))

    def test_a_write_to_one_table_moves_only_its_scope(self):
        _, engine = _deploy(2)
        orders = engine.data_version_for(table_scope("orders"))
        before = engine.data_version_for(table_scope("side"))
        engine.load_table("side", Table(_schema(), [(1, "a", 1.0)]))
        assert engine.data_version_for(table_scope("side")) > before
        assert engine.data_version_for(table_scope("orders")) == orders

    def test_one_batch_per_write_whatever_partitions_it_touches(self):
        _, engine = _deploy(4)
        engine.changelog.register(self)  # a reader keeps the log retaining
        cursor = engine.changelog.latest_seq
        new = [(200 + i, "cN", 1.0) for i in range(8)]
        assert len({partition_of(row[0], 4) for row in new}) > 1
        engine.insert("orders", new)
        batches, complete = engine.changelog.read_since(cursor, table_scope("orders"))
        assert complete and len(batches) == 1
        assert sorted(batches[0].entries) == [(row, 1) for row in new]

    def test_a_delete_reads_as_negative_weight(self):
        _, engine = _deploy(4)
        engine.changelog.register(self)
        cursor = engine.changelog.latest_seq
        engine.delete_rows("orders", col("customer") == "c4")
        batches, complete = engine.changelog.read_since(cursor, table_scope("orders"))
        assert complete
        entries = [entry for batch in batches for entry in batch.entries]
        assert sorted(entries) == sorted(
            (row, -1) for row in ROWS if row[1] == "c4")

    def test_a_delete_invalidates_a_pinned_scan(self):
        system, engine = _deploy(3)
        prepared = system.session().prepare(_count_program())
        prepared.run()
        assert prepared.run().report.cached_tasks > 0
        engine.delete_rows("orders", col("order_id") == 7)
        fresh = prepared.run()
        assert fresh.output("result").to_dicts()[0]["n"] == 79
        assert fresh.report.cached_tasks == 0

    def test_a_write_to_another_table_keeps_the_pin(self):
        system, engine = _deploy(3)
        engine.create_table("side", _schema())
        prepared = system.session().prepare(_count_program())
        prepared.run()
        engine.insert("side", [(1, "a", 1.0)])
        replay = prepared.run()
        assert replay.report.cached_tasks > 0
        assert replay.output("result").to_dicts()[0]["n"] == 80

    def test_a_four_partition_whole_page_delete_refreshes_a_view_exactly(self):
        system = PolystorePlusPlus()
        engine = system.register_sharded_engine("base", RelationalEngine, 4)
        schema = make_schema(("row_id", DataType.INT), ("grp", DataType.STRING),
                             ("value", DataType.FLOAT))
        engine.load_table("events", Table(schema, [(i, "ab"[i % 2], float(i % 5))
                                                   for i in range(120)]), page_capacity=4)
        expr = (system.dataset("base").table("events").filter(col("value") > 0.5)
                .aggregate(["grp"], total=("sum", "value"), n=("count", None)))
        view = system.create_view("spend", expr, policy="manual")
        batches: list = []
        engine.changelog.subscribe(batches.append)
        engine.delete_rows("events", col("row_id") < 80)
        pages = [part.page for batch in batches for part in batch.parts
                 if type(part) is PageEntry]
        assert len(pages) >= 8  # each partition's ~20 rows below 80 fill pages of 4
        assert view.refresh().kind == "incremental"
        program = DataflowProgram("recompute")
        program.output("res", expr)
        recomputed = system.execute(program, options=CompilerOptions(use_views=False))
        assert sorted(view.read()[0].rows) == sorted(recomputed.output("res").rows)

    @pytest.mark.parametrize("write", [
        lambda engine: engine.insert("orders", [(500 + i, "c1", 2.0) for i in range(9)]),
        lambda engine: engine.update_rows("orders", col("customer") == "c2", {"amount": 7.5}),
        lambda engine: engine.delete_rows("orders", col("order_id").isin(*range(0, 80, 3))),
    ], ids=["insert", "update", "delete"])
    def test_a_view_refreshes_incrementally_after_each_write_kind(self, write):
        system, engine = _deploy(4)
        expr = (system.dataset("ordersdb").table("orders").filter(col("amount") > 1.0)
                .aggregate(["customer"], total=("sum", "amount"), n=("count", None)))
        view = system.create_view("spend", expr, policy="manual")
        write(engine)
        assert view.refresh().kind == "incremental"
        program = DataflowProgram("recompute")
        program.output("res", expr)
        recomputed = system.execute(program, options=CompilerOptions(use_views=False))
        assert sorted(view.read()[0].rows) == sorted(recomputed.output("res").rows)


class TestDurability:
    def _reopen(self, tmp_path, partitions=2):
        system = PolystorePlusPlus(data_dir=str(tmp_path))
        return system, system.register_sharded_engine("db", RelationalEngine, partitions)

    def test_scoped_versions_never_regress_across_a_restart(self, tmp_path):
        system, engine = self._reopen(tmp_path, 3)
        engine.load_table("orders", Table(_schema(), ROWS))
        engine.insert("orders", [(1000, "cX", 1.0)])
        scope = table_scope("orders")
        observed = [engine.data_version_for(scope)]
        system.close()

        system, engine = self._reopen(tmp_path)
        observed.append(engine.data_version_for(scope))
        engine.insert("orders", [(1001, "cX", 1.0)])
        observed.append(engine.data_version_for(scope))
        system.close()
        assert observed[0] == observed[1] < observed[2]

    def test_a_declared_shard_key_and_the_partitions_survive_a_restart(self, tmp_path):
        system, engine = self._reopen(tmp_path, 3)
        engine.create_table("orders", _schema(), shard_key="customer")
        engine.insert("orders", ROWS)
        rows = engine.scan("orders").rows
        system.close()

        system, engine = self._reopen(tmp_path)
        assert engine.partitions == 3
        assert engine.scan("orders").rows == rows
        assert engine._stored("orders").shard_key == "customer"
        engine.insert("orders", [(500, "c3", 1.0), (501, "c0", 1.0)])
        assert engine.scan("orders").rows[-2:] == sorted(
            [(500, "c3", 1.0), (501, "c0", 1.0)], key=lambda row: partition_of(row[1], 3))
        with pytest.raises(StorageError):
            engine.update_rows("orders", col("order_id") == 1, {"customer": "c0"})
        system.close()

    def test_a_write_in_the_wal_tail_replays_in_partition_order(self, tmp_path):
        system, engine = self._reopen(tmp_path, 4)
        engine.create_table("orders", _schema())
        engine.insert("orders", ROWS)  # after the attach's checkpoint: WAL only
        rows = engine.scan("orders").rows
        system.durability.liveness.kill()

        reborn, engine = self._reopen(tmp_path)
        assert engine.partitions == 4
        assert engine.scan("orders").rows == rows
        reborn.close()

    def test_an_index_on_a_partitioned_table_survives_a_restart(self, tmp_path):
        system, engine = self._reopen(tmp_path, 3)
        engine.load_table("orders", Table(_schema(), ROWS))
        engine.create_index("orders", "customer")
        system.close()

        system, engine = self._reopen(tmp_path)
        assert engine.has_index("orders", "customer")
        assert sorted(engine.index_lookup("orders", "customer", "c1").rows) == sorted(
            row for row in ROWS if row[1] == "c1")
        system.close()

    def test_an_update_and_a_delete_replay_from_the_wal_tail(self, tmp_path):
        system, engine = self._reopen(tmp_path, 4)
        engine.create_table("orders", _schema())
        engine.insert("orders", ROWS)
        engine.update_rows("orders", col("customer") == "c2", {"amount": -1.0})
        engine.delete_rows("orders", col("order_id").isin(*range(0, 80, 4)))
        rows = engine.scan("orders").rows
        system.durability.liveness.kill()

        reborn, engine = self._reopen(tmp_path)
        assert engine.scan("orders").rows == rows
        assert engine.scan("orders", predicate=col("order_id") == 5).rows == [
            row for row in rows if row[0] == 5]
        reborn.close()
