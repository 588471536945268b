"""ShardedEngine: routing, metadata aggregation, data_version semantics."""

from __future__ import annotations

import pytest

from repro.cluster import HashPartitioner, RangePartitioner, ShardedEngine
from repro.core import build_accelerated_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import ConfigurationError, StorageError
from repro.stores import KeyValueEngine, RelationalEngine, TimeseriesEngine
from repro.stores.base import DataModel


def _orders_schema():
    return make_schema(("order_id", DataType.INT), ("customer", DataType.STRING),
                       ("amount", DataType.FLOAT))


def _loaded_relational(num_shards: int = 3, rows: int = 60) -> ShardedEngine:
    engine = ShardedEngine("ordersdb", RelationalEngine, num_shards)
    engine.load_table("orders", Table(_orders_schema(), [
        (i, f"c{i % 5}", float(i % 11)) for i in range(rows)
    ]))
    return engine


class TestConstruction:
    def test_factory_class_names_shards(self):
        engine = ShardedEngine("db", RelationalEngine, 2)
        assert [shard.name for shard in engine.shards] == ["db-s0", "db-s1"]
        assert engine.primary is engine.shard(0)

    def test_factory_callable(self):
        engine = ShardedEngine("db", lambda i: KeyValueEngine(f"kv{i}"), 2)
        assert [shard.name for shard in engine.shards] == ["kv0", "kv1"]
        assert engine.data_model is DataModel.KEY_VALUE

    def test_contract_mirrors_shards(self):
        engine = ShardedEngine("db", RelationalEngine, 2)
        template = RelationalEngine("t")
        assert engine.data_model is template.data_model

    def test_explicit_partitioner(self):
        engine = ShardedEngine("db", RelationalEngine,
                               partitioner=RangePartitioner([50]))
        assert engine.num_shards == 2

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            ShardedEngine("db", RelationalEngine)  # no shard count at all
        with pytest.raises(ConfigurationError):
            ShardedEngine("db", RelationalEngine, 3,
                          partitioner=HashPartitioner(2))
        with pytest.raises(ConfigurationError):
            ShardedEngine("db", dict, 2)  # not an Engine class
        with pytest.raises(ConfigurationError):
            ShardedEngine("db", lambda i: object(), 2)

    def test_describe_reports_topology(self):
        engine = _loaded_relational(2)
        description = engine.describe()
        assert description["shards"] == ["ordersdb-s0", "ordersdb-s1"]
        assert description["partitioner"]["num_shards"] == 2
        assert description["shard_keys"] == {"orders": "order_id"}
        assert description["rebalancing"] is False


class TestRelationalRouting:
    def test_rows_route_by_shard_key_and_cover_all_data(self):
        engine = _loaded_relational(3, rows=90)
        per_shard = [len(shard.scan("orders")) for shard in engine.shards]
        assert sum(per_shard) == 90
        assert all(count > 0 for count in per_shard)
        merged = engine.scan("orders")
        assert len(merged) == 90
        assert sorted(merged.column("order_id")) == list(range(90))

    def test_rows_placed_on_partitioner_chosen_shard(self):
        engine = _loaded_relational(3, rows=30)
        for shard_index, shard in enumerate(engine.shards):
            for order_id in shard.scan("orders").column("order_id"):
                assert engine.partitioner.shard_for(order_id) == shard_index

    def test_declared_shard_key_column(self):
        engine = ShardedEngine("db", RelationalEngine, 2)
        engine.create_table("orders", _orders_schema(), shard_key="customer")
        assert engine.shard_key_for("orders") == "customer"
        engine.insert("orders", [(1, "alice", 5.0), (2, "alice", 6.0)])
        # Same customer -> same shard, whatever the order ids.
        owning = [len(shard.scan("orders")) for shard in engine.shards]
        assert sorted(owning) == [0, 2]

    def test_insert_dicts_routes(self):
        engine = ShardedEngine("db", RelationalEngine, 2)
        engine.create_table("orders", _orders_schema())
        engine.insert_dicts("orders", [
            {"order_id": 1, "customer": "a", "amount": 1.0},
            {"order_id": 2, "customer": "b", "amount": 2.0},
        ])
        assert len(engine.scan("orders")) == 2

    def test_unknown_shard_key_rejected(self):
        engine = ShardedEngine("db", RelationalEngine, 2)
        with pytest.raises(StorageError):
            engine.create_table("orders", _orders_schema(), shard_key="nope")

    def test_insert_without_declared_key_rejected(self):
        engine = ShardedEngine("db", RelationalEngine, 2)
        engine.shard(0).create_table("orders", _orders_schema())
        with pytest.raises(StorageError):
            engine.insert("orders", [(1, "a", 1.0)])

    def test_table_statistics_aggregate(self):
        engine = _loaded_relational(3, rows=60)
        stats = engine.table_statistics("orders")
        assert stats["rows"] == 60
        assert stats["shards"] == 3
        assert sum(stats["shard_rows"]) == 60
        assert engine.has_table("orders") and engine.list_tables() == ["orders"]
        assert engine.table_schema("orders").names == ("order_id", "customer", "amount")

    def test_drop_table_everywhere(self):
        engine = _loaded_relational(2)
        engine.drop_table("orders")
        assert not engine.has_table("orders")
        assert engine.shard_key_for("orders") is None


class TestKeyValueRouting:
    def test_put_get_delete_route(self):
        engine = ShardedEngine("profiles", KeyValueEngine, 3)
        engine.put_many({f"user/{i}": {"uid": i} for i in range(30)})
        assert engine.get("user/7") == {"uid": 7}
        assert engine.get("missing", "fallback") == "fallback"
        engine.delete("user/7")
        assert engine.get("user/7") is None
        per_shard = [len(shard.keys()) for shard in engine.shards]
        assert sum(per_shard) == 29 and all(count > 0 for count in per_shard)

    def test_multi_get_and_merged_range(self):
        engine = ShardedEngine("profiles", KeyValueEngine, 3)
        engine.put_many({f"k{i:03d}": i for i in range(40)})
        got = engine.multi_get(["k005", "k017", "nope"])
        assert got == {"k005": 5, "k017": 17}
        merged = list(engine.range("k010", "k020"))
        assert [key for key, _ in merged] == [f"k{i:03d}" for i in range(10, 20)]
        assert [key for key, _ in engine.scan()] == sorted(f"k{i:03d}" for i in range(40))


class TestTimeseriesRouting:
    def test_series_stay_whole_on_one_shard(self):
        engine = ShardedEngine("metrics", TimeseriesEngine, 3)
        for i in range(9):
            engine.append_many(f"hr/{i}", [(float(t), float(t + i)) for t in range(8)])
        engine.append("hr/0", 100.0, 42.0)
        assert engine.list_series() == sorted(f"hr/{i}" for i in range(9))
        assert engine.summarize("hr/0")["count"] == 9
        assert len(engine.query_range("hr/3")) == 8
        owner = engine.shard_for("hr/3")
        assert owner.has_series("hr/3")
        assert sum(len(shard.list_series()) for shard in engine.shards) == 9


class TestDataVersion:
    def test_any_shard_write_bumps_aggregate(self):
        engine = _loaded_relational(3)
        before = engine.data_version
        engine.insert("orders", [(1000, "cX", 1.0)])  # lands on one shard
        assert engine.data_version > before

    def test_direct_shard_write_also_visible(self):
        engine = _loaded_relational(2)
        before = engine.data_version
        engine.shard(1).mark_data_changed()
        assert engine.data_version == before + 1


class TestSystemRegistration:
    def test_registers_like_any_engine(self):
        system = build_accelerated_polystore([])
        engine = system.register_sharded_engine("ordersdb", RelationalEngine, 2)
        assert system.engine("ordersdb") is engine
        assert system.catalog.table_rows("ordersdb", "orders") == 0
        engine.load_table("orders", Table(_orders_schema(), [(1, "a", 2.0)]))
        assert system.catalog.table_rows("ordersdb", "orders") == 1

    def test_rebalance_rejects_plain_engines(self):
        system = build_accelerated_polystore([RelationalEngine("plain")])
        with pytest.raises(ConfigurationError):
            system.rebalance_sharded_engine("plain", 2)
