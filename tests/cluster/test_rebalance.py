"""Online rebalancing: correctness during the copy phase and after cutover."""

from __future__ import annotations

import pytest

from repro import DataflowProgram, dataset
from repro.cluster import (
    HashPartitioner,
    RangePartitioner,
    ShardedEngine,
    ShardRebalancer,
)
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import ConfigurationError, MigrationError
from repro.stores import KeyValueEngine, RelationalEngine, TimeseriesEngine

ROWS = [(i, f"c{i % 5}", float(i % 9)) for i in range(80)]


def _schema():
    return make_schema(("order_id", DataType.INT), ("customer", DataType.STRING),
                       ("amount", DataType.FLOAT))


def _sharded_deployment(num_shards: int = 2):
    system = build_cpu_polystore([])
    engine = system.register_sharded_engine("ordersdb", RelationalEngine, num_shards)
    engine.load_table("orders", Table(_schema(), ROWS))
    return system, engine


def _count_program():
    program = DataflowProgram("count")
    program.output("result", dataset("ordersdb").sql(
        "SELECT count(*) AS n, sum(amount) AS total FROM orders"))
    return program


def _totals(system):
    return system.execute(_count_program()).output("result").to_dicts()[0]


class TestRelationalSplit:
    def test_queries_correct_during_and_after_2_to_4_split(self):
        system, engine = _sharded_deployment(2)
        before = _totals(system)
        assert before["n"] == 80

        # Phase 1: snapshot + dual-write installed; reads serve the OLD map.
        payloads = engine.begin_rebalance(HashPartitioner(4))
        assert engine.rebalancing
        assert _totals(system) == before

        # Writes during the copy phase land in both maps.
        engine.insert("orders", [(1000, "cX", 3.0)])
        during = _totals(system)
        assert during["n"] == 81 and during["total"] == before["total"] + 3.0
        assert engine.num_shards == 2  # still the old topology

        # Phase 2+3: copy the snapshot through the migrator, then cut over.
        rebalancer = ShardRebalancer(engine)
        for payload in payloads:
            received, _ = rebalancer.migrator.migrate(
                payload.table, source=payload.source_shard, target="ordersdb")
            engine.apply_payload(payload, received)
        engine.cutover()

        assert engine.num_shards == 4 and not engine.rebalancing
        after = _totals(system)
        assert after == during
        per_shard = [len(shard.scan("orders")) for shard in engine.shards]
        assert sum(per_shard) == 81 and all(count > 0 for count in per_shard)

    def test_full_rebalancer_path_and_report(self):
        system, engine = _sharded_deployment(2)
        expected = _totals(system)
        report = ShardRebalancer(engine).split(2)
        assert engine.num_shards == 4
        assert _totals(system) == expected
        assert report.old_shards == 2 and report.new_shards == 4
        assert report.moved_rows == 80
        assert report.payloads == 2
        assert report.migrated_bytes > 0
        assert report.migration_time_s > 0.0
        assert report.summary()["engine"] == "ordersdb"

    def test_system_convenience_charges_deployment_network(self):
        system, engine = _sharded_deployment(2)
        expected = _totals(system)
        report = system.rebalance_sharded_engine("ordersdb", 4)
        assert engine.num_shards == 4
        assert report.migrated_bytes > 0
        assert _totals(system) == expected

    def test_rebalance_onto_range_partitioner(self):
        system, engine = _sharded_deployment(2)
        expected = _totals(system)
        system.rebalance_sharded_engine(
            "ordersdb", partitioner=RangePartitioner([20, 40, 60]))
        assert engine.num_shards == 4
        assert _totals(system) == expected
        # Range placement: shard i owns a contiguous order_id band.
        assert sorted(engine.shard(0).scan("orders").column("order_id")) == \
            list(range(20))

    def test_data_version_strictly_increases_across_cutover(self):
        _, engine = _sharded_deployment(2)
        before = engine.data_version
        ShardRebalancer(engine).split(2)
        after = engine.data_version
        assert after > before
        engine.insert("orders", [(2000, "cY", 1.0)])
        assert engine.data_version > after

    def test_pinned_snapshots_invalidate_at_cutover(self):
        system, engine = _sharded_deployment(2)
        session = system.session()
        prepared = session.prepare(_count_program())
        prepared.run()
        replay = prepared.run()
        assert replay.report.cached_tasks > 0
        ShardRebalancer(engine).split(2)
        fresh = prepared.run()
        assert fresh.output("result").to_dicts()[0]["n"] == 80
        assert fresh.report.cached_tasks == 0  # cutover bumped data_version


class TestFailureAndMisuse:
    def test_failed_copy_aborts_and_keeps_old_map(self):
        system, engine = _sharded_deployment(2)
        expected = _totals(system)
        with pytest.raises(MigrationError):
            ShardRebalancer(engine, strategy="bogus").split(2)
        assert engine.num_shards == 2 and not engine.rebalancing
        assert _totals(system) == expected
        # A later rebalance succeeds.
        ShardRebalancer(engine).split(2)
        assert engine.num_shards == 4

    def test_double_begin_rejected(self):
        _, engine = _sharded_deployment(2)
        engine.begin_rebalance(HashPartitioner(4))
        with pytest.raises(ConfigurationError):
            engine.begin_rebalance(HashPartitioner(8))
        engine.abort_rebalance()
        assert not engine.rebalancing

    def test_cutover_and_apply_require_begin(self):
        _, engine = _sharded_deployment(2)
        with pytest.raises(ConfigurationError):
            engine.cutover()
        with pytest.raises(ConfigurationError):
            engine.pending_topology()

    def test_rebalance_needs_target(self):
        _, engine = _sharded_deployment(2)
        with pytest.raises(ValueError):
            ShardRebalancer(engine).rebalance()
        with pytest.raises(ValueError):
            ShardRebalancer(engine).split(0)


class TestKeyValueAndTimeseries:
    def test_kv_split_preserves_every_key(self):
        engine = ShardedEngine("profiles", KeyValueEngine, 2)
        engine.put_many({f"user/{i}": {"uid": i} for i in range(50)})
        payloads = engine.begin_rebalance(HashPartitioner(4))
        engine.put("user/999", {"uid": 999})  # dual-write during copy
        for payload in payloads:
            engine.apply_payload(payload)
        engine.cutover()
        assert engine.num_shards == 4
        assert len(list(engine.scan())) == 51
        assert engine.get("user/999") == {"uid": 999}
        assert engine.get("user/17") == {"uid": 17}

    def test_timeseries_split_keeps_series_whole(self):
        engine = ShardedEngine("metrics", TimeseriesEngine, 2)
        for i in range(10):
            engine.append_many(f"hr/{i}", [(float(t), float(t)) for t in range(12)])
        report = ShardRebalancer(engine).rebalance(5)
        assert engine.num_shards == 5
        assert report.moved_rows == 120
        assert report.migrated_bytes > 0  # series payloads travel as tables
        for i in range(10):
            summary = engine.summarize(f"hr/{i}")
            assert summary["count"] == 12
            # Exactly one shard owns the whole series.
            owners = [shard for shard in engine.shards if shard.has_series(f"hr/{i}")]
            assert len(owners) == 1


class TestDualWriteConsistency:
    def test_kv_updates_during_copy_survive_cutover(self):
        engine = ShardedEngine("profiles", KeyValueEngine, 2)
        engine.put_many({f"user/{i}": "old" for i in range(40)})
        payloads = engine.begin_rebalance(HashPartitioner(4))
        # Concurrent writes race the copy: an overwrite and a delete.
        engine.put("user/7", "NEW")
        engine.delete("user/13")
        for payload in payloads:
            engine.apply_payload(payload)  # snapshot replays AFTER the writes
        engine.cutover()
        assert engine.get("user/7") == "NEW", "copy clobbered a newer dual-write"
        assert engine.get("user/13") is None, "copy resurrected a deleted key"
        assert engine.get("user/20") == "old"
        assert len(list(engine.scan())) == 39

    def test_override_tracking_resets_between_rebalances(self):
        engine = ShardedEngine("profiles", KeyValueEngine, 2)
        engine.put("a", 1)
        payloads = engine.begin_rebalance(HashPartitioner(4))
        engine.put("a", 2)
        for payload in payloads:
            engine.apply_payload(payload)
        engine.cutover()
        assert engine.get("a") == 2
        # Second rebalance: "a" is no longer an override, so the snapshot
        # (which now contains the value 2) must be applied normally.
        ShardRebalancer(engine).rebalance(3)
        assert engine.get("a") == 2


class TestTimeseriesFidelity:
    def test_tags_and_empty_series_survive_rebalance(self):
        engine = ShardedEngine("metrics", TimeseriesEngine, 2)
        engine.create_series("hr/1", {"unit": "bpm"})
        engine.append_many("hr/1", [(1.0, 60.0), (2.0, 61.0)])
        engine.create_series("hr/empty", {"unit": "bpm"})
        ShardRebalancer(engine).rebalance(4)
        assert engine.list_series() == ["hr/1", "hr/empty"]
        assert engine.list_series({"unit": "bpm"}) == ["hr/1", "hr/empty"]
        assert engine.has_series("hr/empty")
        assert engine.query_range("hr/empty") == []
        assert [p.value for p in engine.query_range("hr/1")] == [60.0, 61.0]


class TestConstructionGuards:
    def test_non_partitionable_models_rejected(self):
        from repro.stores import GraphEngine, MLEngine

        with pytest.raises(ConfigurationError):
            ShardedEngine("g", GraphEngine, 2)
        with pytest.raises(ConfigurationError):
            ShardedEngine("m", MLEngine, 2)

    def test_topology_is_a_consistent_pair(self):
        _, engine = _sharded_deployment(2)
        shards, partitioner = engine.topology()
        assert len(shards) == partitioner.num_shards == 2
        engine.begin_rebalance(HashPartitioner(4))
        shards, partitioner = engine.topology()  # still the serving (old) map
        assert len(shards) == partitioner.num_shards == 2
        engine.abort_rebalance()


class TestTagDualWriteRace:
    def test_tags_survive_when_dual_write_creates_series_first(self):
        engine = ShardedEngine("metrics", TimeseriesEngine, 2)
        engine.create_series("hr/1", {"unit": "bpm"})
        engine.append_many("hr/1", [(1.0, 60.0)])
        payloads = engine.begin_rebalance(HashPartitioner(4))
        # This append auto-creates 'hr/1' TAGLESS on the pending shard
        # before the snapshot payload (which carries the tags) is applied.
        engine.append("hr/1", 2.0, 61.0)
        for payload in payloads:
            engine.apply_payload(payload)
        engine.cutover()
        assert engine.list_series({"unit": "bpm"}) == ["hr/1"]
        assert [p.value for p in engine.query_range("hr/1")] == [60.0, 61.0]

    def test_document_engines_shard_but_do_not_rebalance(self):
        from repro.stores import TextEngine

        engine = ShardedEngine("notes", TextEngine, 2)
        engine.add_document("d1", "hello world")
        with pytest.raises(ConfigurationError):
            ShardRebalancer(engine).split(2)
        assert engine.num_shards == 2 and not engine.rebalancing
