"""A sharded engine on its fixed shard map.

Every write lands on the one shard the partitioner names, every merged read
sees every shard, the facade's versions only move forward, and the map a
durable data directory records is the one that serves after a restart — for
each partitionable data model.
"""

from __future__ import annotations

import pytest

from repro import DataflowProgram, PolystorePlusPlus, col, dataset
from repro.cluster import RangePartitioner, ShardedEngine
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import StorageError
from repro.stores import KeyValueEngine, RelationalEngine, TextEngine, TimeseriesEngine
from repro.stores.changelog import table_scope

ROWS = [(i, f"c{i % 5}", float(i % 9)) for i in range(80)]


def _schema():
    return make_schema(("order_id", DataType.INT), ("customer", DataType.STRING),
                       ("amount", DataType.FLOAT))


def _deploy(num_shards: int = 4, *, partitioner=None):
    system = build_cpu_polystore([])
    engine = system.register_sharded_engine(
        "ordersdb", RelationalEngine,
        None if partitioner is not None else num_shards, partitioner=partitioner)
    engine.load_table("orders", Table(_schema(), ROWS))
    return system, engine


def _count_program():
    program = DataflowProgram("count")
    program.output("result", dataset("ordersdb").sql(
        "SELECT count(*) AS n, sum(amount) AS total FROM orders"))
    return program


def _totals(system):
    return system.execute(_count_program()).output("result").to_dicts()[0]


def _owned_ids(engine):
    return [sorted(shard.scan("orders").column("order_id")) for shard in engine.shards]


class TestRelationalPlacement:
    def test_range_partitioner_gives_each_shard_a_contiguous_band(self):
        _, engine = _deploy(partitioner=RangePartitioner([20, 40, 60]))
        assert engine.num_shards == 4
        assert _owned_ids(engine) == [list(range(lo, lo + 20))
                                      for lo in (0, 20, 40, 60)]

    def test_range_and_hash_maps_answer_alike(self):
        hashed, _ = _deploy(4)
        ranged, _ = _deploy(partitioner=RangePartitioner([20, 40, 60]))
        assert _totals(hashed) == _totals(ranged) == {
            "n": 80, "total": sum(row[2] for row in ROWS)}

    def test_keys_outside_the_boundaries_route_to_the_edge_shards(self):
        _, engine = _deploy(partitioner=RangePartitioner([20, 40, 60]))
        engine.insert("orders", [(-5, "cX", 1.0), (10_000, "cY", 2.0)])
        owned = _owned_ids(engine)
        assert owned[0][0] == -5
        assert owned[-1][-1] == 10_000
        assert sum(map(len, owned)) == 82

    def test_create_table_arguments_reach_every_shard(self):
        engine = ShardedEngine("ordersdb", RelationalEngine, 3)
        engine.create_table("orders", _schema(), page_capacity=4)
        engine.insert("orders", ROWS)
        for shard in engine.shards:
            assert shard._tables["orders"].heap.page_capacity == 4

    def test_create_index_reaches_every_shard(self):
        _, engine = _deploy(3)
        assert not engine.has_index("orders", "customer")
        engine.create_index("orders", "customer")
        assert engine.has_index("orders", "customer")
        assert all(shard.has_index("orders", "customer") for shard in engine.shards)

    def test_delete_rows_returns_what_every_shard_deleted(self):
        _, engine = _deploy(4)
        deleted = engine.delete_rows("orders", col("customer") == "c2")
        assert sorted(deleted) == sorted(row for row in ROWS if row[1] == "c2")
        assert len(engine.scan("orders")) == 80 - len(deleted)
        assert all("c2" not in shard.scan("orders").column("customer")
                   for shard in engine.shards)

    def test_update_rows_changes_rows_in_place_on_their_shards(self):
        _, engine = _deploy(4)
        placement = _owned_ids(engine)
        pairs = engine.update_rows("orders", col("amount") == 0.0, {"amount": -1.0})
        assert sorted(old for old, _ in pairs) == sorted(
            row for row in ROWS if row[2] == 0.0)
        assert all(new[2] == -1.0 and new[:2] == old[:2] for old, new in pairs)
        assert _owned_ids(engine) == placement
        assert sorted(engine.scan("orders").rows) == sorted(
            (i, c, -1.0 if a == 0.0 else a) for i, c, a in ROWS)

    def test_shard_key_update_is_refused_and_changes_nothing(self):
        _, engine = _deploy(2)
        version = engine.data_version
        with pytest.raises(StorageError):
            engine.update_rows("orders", col("order_id") == 3, {"order_id": 300})
        assert sorted(engine.scan("orders").rows) == sorted(ROWS)
        assert engine.data_version == version

    def test_a_recreated_table_routes_on_its_new_shard_key(self):
        _, engine = _deploy(3)
        engine.drop_table("orders")
        engine.create_table("orders", _schema(), shard_key="customer")
        engine.insert("orders", ROWS)
        for index, shard in enumerate(engine.shards):
            assert all(engine.partitioner.shard_for(customer) == index
                       for customer in shard.scan("orders").column("customer"))

    def test_topology_is_a_consistent_pair(self):
        _, engine = _deploy(3)
        shards, partitioner = engine.topology()
        assert len(shards) == partitioner.num_shards == engine.num_shards == 3
        assert shards == engine.shards and partitioner is engine.partitioner

    def test_snapshot_scan_pairs_the_rows_with_the_log_head(self):
        _, engine = _deploy(3)
        table, head = engine.snapshot_scan("orders")
        assert head == engine.changelog.latest_seq
        assert sorted(table.rows) == sorted(ROWS)
        engine.insert("orders", [(500, "cZ", 1.0)])
        table, later = engine.snapshot_scan("orders", ["order_id"])
        assert later == head + 1
        assert sorted(table.column("order_id")) == list(range(80)) + [500]


class TestFacadeVersions:
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

    def test_a_table_written_on_one_shard_only_moves_its_facade_scope(self):
        _, engine = _deploy(2)
        orders = engine.data_version_for(table_scope("orders"))
        before = engine.data_version_for(table_scope("direct"))
        engine.shard(1).load_table("direct", Table(_schema(), [(1, "a", 1.0)]))
        assert engine.data_version_for(table_scope("direct")) > before
        assert engine.data_version_for(table_scope("orders")) == orders

    def test_a_routed_delete_invalidates_a_pinned_scan(self):
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

    def test_a_facade_cursor_reads_each_routed_row_once(self):
        _, engine = _deploy(4)
        engine.changelog.register(self)  # a reader keeps the log retaining
        cursor = engine.changelog.latest_seq
        new = [(200 + i, "cN", 1.0) for i in range(8)]
        engine.insert("orders", new)
        batches, complete = engine.changelog.read_since(cursor, table_scope("orders"))
        assert complete
        entries = [entry for batch in batches for entry in batch.entries]
        assert sorted(entries) == [(row, 1) for row in new]

    def test_a_facade_cursor_reads_a_routed_delete_as_negative_weight(self):
        _, engine = _deploy(4)
        engine.changelog.register(self)
        cursor = engine.changelog.latest_seq
        engine.delete_rows("orders", col("customer") == "c4")
        batches, complete = engine.changelog.read_since(cursor, table_scope("orders"))
        assert complete
        entries = [entry for batch in batches for entry in batch.entries]
        assert sorted(entries) == sorted(
            (row, -1) for row in ROWS if row[1] == "c4")


class TestKeyValueShards:
    def test_every_key_lives_on_its_owner_only(self):
        engine = ShardedEngine("profiles", KeyValueEngine, 4)
        engine.put_many({f"user/{i}": {"uid": i} for i in range(50)})
        for index, shard in enumerate(engine.shards):
            assert all(engine.partitioner.shard_for(key) == index
                       for key in shard.keys())
        assert len(list(engine.scan())) == 50

    def test_overwrite_and_delete_touch_only_the_owner(self):
        engine = ShardedEngine("profiles", KeyValueEngine, 4)
        engine.put_many({f"user/{i}": "old" for i in range(40)})
        others = {i: sorted(shard.keys()) for i, shard in enumerate(engine.shards)
                  if shard is not engine.shard_for("user/7")
                  and shard is not engine.shard_for("user/13")}
        engine.put("user/7", "NEW")
        engine.delete("user/13")
        assert engine.get("user/7") == "NEW"
        assert engine.get("user/13") is None
        assert engine.get("user/20") == "old"
        assert len(list(engine.scan())) == 39
        assert {i: sorted(engine.shard(i).keys()) for i in others} == others

    def test_multi_get_gathers_keys_from_every_shard(self):
        engine = ShardedEngine("profiles", KeyValueEngine, 4)
        engine.put_many({f"user/{i}": i for i in range(40)})
        wanted = [f"user/{i}" for i in range(0, 40, 3)]
        assert {engine.partitioner.shard_for(key) for key in wanted} == {0, 1, 2, 3}
        assert engine.multi_get(wanted + ["user/999"]) == {
            key: int(key.split("/")[1]) for key in wanted}


class TestTimeseriesShards:
    def test_tags_and_empty_series_show_through_the_facade(self):
        engine = ShardedEngine("metrics", TimeseriesEngine, 4)
        engine.create_series("hr/1", {"unit": "bpm"})
        engine.append_many("hr/1", [(1.0, 60.0), (2.0, 61.0)])
        engine.create_series("hr/empty", {"unit": "bpm"})
        engine.create_series("temp/1", {"unit": "C"})
        assert engine.list_series() == ["hr/1", "hr/empty", "temp/1"]
        assert engine.list_series({"unit": "bpm"}) == ["hr/1", "hr/empty"]
        assert engine.has_series("hr/empty")
        assert engine.query_range("hr/empty") == []
        assert [p.value for p in engine.query_range("hr/1")] == [60.0, 61.0]

    def test_an_append_keeps_the_tags_the_series_was_created_with(self):
        engine = ShardedEngine("metrics", TimeseriesEngine, 3)
        engine.create_series("hr/1", {"unit": "bpm"})
        engine.append("hr/1", 1.0, 60.0)
        engine.append_many("hr/1", [(2.0, 61.0), (3.0, 62.0)])
        assert engine.list_series({"unit": "bpm"}) == ["hr/1"]
        assert engine.summarize("hr/1")["count"] == 3

    def test_string_range_boundaries_keep_series_whole_in_their_band(self):
        engine = ShardedEngine("metrics", TimeseriesEngine,
                               partitioner=RangePartitioner(["hr/5"]))
        for i in range(10):
            engine.append_many(f"hr/{i}", [(float(t), float(t)) for t in range(6)])
        assert engine.shard(0).list_series() == [f"hr/{i}" for i in range(5)]
        assert engine.shard(1).list_series() == [f"hr/{i}" for i in range(5, 10)]
        assert all(engine.summarize(f"hr/{i}")["count"] == 6 for i in range(10))


class TestDocumentShards:
    def test_documents_route_by_doc_id(self):
        engine = ShardedEngine("notes", TextEngine, 3)
        for i in range(12):
            engine.add_document(f"note/{i}", f"patient {i} stable")
        for i in range(12):
            owner = engine.partitioner.shard_for(f"note/{i}")
            assert [shard.has_document(f"note/{i}") for shard in engine.shards] == [
                index == owner for index in range(3)]

    def test_a_routed_document_reaches_the_facade_log(self):
        engine = ShardedEngine("notes", TextEngine, 3)
        version, head = engine.data_version, engine.changelog.latest_seq
        engine.add_document("d1", "hello world")
        assert engine.data_version > version
        assert engine.changelog.latest_seq == head + 1


class TestFixedMapDurability:
    def _reopen(self, tmp_path, factory, num_shards=2):
        system = PolystorePlusPlus(data_dir=str(tmp_path))
        return system, system.register_sharded_engine("db", factory, num_shards)

    def test_scoped_versions_never_regress_across_a_restart(self, tmp_path):
        system, engine = self._reopen(tmp_path, RelationalEngine, 3)
        engine.load_table("orders", Table(_schema(), ROWS))
        engine.insert("orders", [(1000, "cX", 1.0)])
        scope = table_scope("orders")
        observed = [engine.data_version_for(scope)]
        system.close()

        system, engine = self._reopen(tmp_path, RelationalEngine)
        observed.append(engine.data_version_for(scope))
        engine.insert("orders", [(1001, "cX", 1.0)])
        observed.append(engine.data_version_for(scope))
        system.close()
        assert observed[0] == observed[1] < observed[2]

    def test_a_range_map_survives_a_restart(self, tmp_path):
        system = PolystorePlusPlus(data_dir=str(tmp_path))
        engine = system.register_sharded_engine(
            "db", RelationalEngine, partitioner=RangePartitioner([20, 40, 60]))
        engine.load_table("orders", Table(_schema(), ROWS))
        system.close()

        system, engine = self._reopen(tmp_path, RelationalEngine)
        assert engine.num_shards == 4
        assert isinstance(engine.partitioner, RangePartitioner)
        engine.insert("orders", [(25, "cX", 1.0)])
        assert 25 in engine.shard(1).scan("orders").column("order_id")
        assert len(engine.scan("orders")) == 81
        system.close()

    def test_key_value_shards_recover_overwrites_and_deletes(self, tmp_path):
        system, engine = self._reopen(tmp_path, KeyValueEngine, 3)
        engine.put_many({f"user/{i}": "old" for i in range(30)})
        engine.put("user/7", "NEW")
        engine.delete("user/13")
        system.close()

        system, engine = self._reopen(tmp_path, KeyValueEngine)
        assert engine.num_shards == 3
        assert engine.get("user/7") == "NEW" and engine.get("user/13") is None
        assert len(list(engine.scan())) == 29
        for index, shard in enumerate(engine.shards):
            assert all(engine.partitioner.shard_for(key) == index
                       for key in shard.keys())
        system.close()

    def test_timeseries_shards_recover_tags_and_empty_series(self, tmp_path):
        system, engine = self._reopen(tmp_path, TimeseriesEngine, 3)
        engine.create_series("hr/1", {"unit": "bpm"})
        engine.append_many("hr/1", [(1.0, 60.0), (2.0, 61.0)])
        engine.create_series("hr/empty", {"unit": "bpm"})
        system.close()

        system, engine = self._reopen(tmp_path, TimeseriesEngine)
        assert engine.num_shards == 3
        assert engine.list_series({"unit": "bpm"}) == ["hr/1", "hr/empty"]
        assert engine.query_range("hr/empty") == []
        assert [p.value for p in engine.query_range("hr/1")] == [60.0, 61.0]
        system.close()

    def test_document_shards_recover_each_document_on_its_owner(self, tmp_path):
        system, engine = self._reopen(tmp_path, TextEngine, 3)
        for i in range(9):
            engine.add_document(f"note/{i}", f"patient {i} stable")
        system.close()

        system, engine = self._reopen(tmp_path, TextEngine)
        assert engine.num_shards == 3
        for i in range(9):
            assert engine.shard_for(f"note/{i}").has_document(f"note/{i}")
        system.close()

    def test_a_declared_shard_key_survives_a_restart(self, tmp_path):
        system, engine = self._reopen(tmp_path, RelationalEngine, 3)
        engine.create_table("orders", _schema(), shard_key="customer")
        engine.insert("orders", ROWS)
        system.close()

        system, engine = self._reopen(tmp_path, RelationalEngine)
        assert engine.shard_key_for("orders") == "customer"
        engine.insert("orders", [(500, "c3", 1.0)])
        assert 500 in engine.shard_for("c3").scan("orders").column("order_id")
        for index, shard in enumerate(engine.shards):
            assert all(engine.partitioner.shard_for(customer) == index
                       for customer in shard.scan("orders").column("customer"))
        with pytest.raises(StorageError):
            engine.update_rows("orders", col("order_id") == 1, {"customer": "c0"})
        system.close()
