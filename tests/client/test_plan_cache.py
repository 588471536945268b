"""Plan-cache behaviour: hits, misses, eviction, invalidation, per-mode keys."""

from __future__ import annotations

import pytest

from repro import DataflowProgram, dataset
from repro.client import PlanCache
from repro.core import build_accelerated_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.stores import RelationalEngine, TimeseriesEngine


def _small_system():
    relational = RelationalEngine("ordersdb")
    schema = make_schema(("order_id", DataType.INT), ("customer_id", DataType.INT),
                         ("amount", DataType.FLOAT))
    relational.load_table("orders", Table(schema, [
        (i, i % 10, float(i % 7)) for i in range(100)
    ]))
    timeseries = TimeseriesEngine("telemetry")
    for customer in range(10):
        timeseries.append_many(f"sessions/{customer}",
                               [(float(day), float(day % 5)) for day in range(10)])
    return build_accelerated_polystore([relational, timeseries])


def _orders_program(where: str = "") -> DataflowProgram:
    spend = dataset("ordersdb").sql(
        f"SELECT customer_id, sum(amount) AS total FROM orders {where}"
        "GROUP BY customer_id")
    sessions = dataset("telemetry").timeseries("sessions/")
    program = DataflowProgram("orders-by-customer")
    program.output("features", spend.join(sessions, left_key="customer_id",
                                          right_key="pid"))
    return program


class TestPlanCacheLRU:
    def test_put_get_and_stats(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" so "b" is the LRU victim
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_invalidate_clears_everything(self):
        cache = PlanCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestSessionPlanCaching:
    def test_identical_programs_hit_the_cache(self):
        system = _small_system()
        session = system.session()
        first = session.prepare(_orders_program())
        second = session.prepare(_orders_program())
        assert first.fingerprint == second.fingerprint
        assert second.compilation is first.compilation
        stats = session.stats()["plan_cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_distinct_entries_per_mode(self):
        system = _small_system()
        session = system.session()
        accelerated = session.prepare(_orders_program(), mode="polystore++")
        cpu = session.prepare(_orders_program(), mode="cpu_polystore")
        assert accelerated.compilation is not cpu.compilation
        assert session.stats()["plan_cache"]["size"] == 2

    def test_register_engine_invalidates_cached_plans(self):
        system = _small_system()
        session = system.session()
        prepared = session.prepare(_orders_program())
        old_compilation = prepared.compilation
        generation = system.plan_generation
        system.register_engine(RelationalEngine("sidecar-db"))
        assert system.plan_generation == generation + 1
        assert session.stats()["plan_cache"]["size"] == 0
        # The prepared handle recompiles transparently on its next run.
        result = prepared.run()
        assert prepared.compilation is not old_compilation
        assert len(result.output("features")) > 0

    def test_program_mutation_changes_fingerprint(self):
        program_a = _orders_program()
        assert program_a.fingerprint() == _orders_program().fingerprint()
        # Structure that feeds an output is part of the identity.
        program_b = _orders_program("WHERE amount > 1 ")
        assert program_a.fingerprint() != program_b.fingerprint()

    def test_one_shot_execute_reuses_cached_plans(self):
        system = _small_system()
        system.execute(_orders_program(), mode="cpu_polystore")
        system.execute(_orders_program(), mode="cpu_polystore")
        stats = system.default_session().stats()["plan_cache"]
        assert stats["hits"] >= 1


class TestDataVersionInvalidation:
    """Engine writes bump ``data_version`` and unpin exactly the affected scans."""

    def test_every_mutator_bumps_data_version(self):
        from repro.stores import KeyValueEngine, TextEngine

        relational = RelationalEngine("vdb")
        versions = [relational.data_version]
        schema = make_schema(("id", DataType.INT), ("x", DataType.FLOAT))
        relational.create_table("t", schema)
        versions.append(relational.data_version)
        relational.insert("t", [(1, 2.0)])
        versions.append(relational.data_version)
        relational.drop_table("t")
        versions.append(relational.data_version)
        assert versions == sorted(set(versions)), "each mutation must bump"

        keyvalue = KeyValueEngine("kvv")
        before = keyvalue.data_version
        keyvalue.put("a", 1)
        assert keyvalue.data_version > before
        mid = keyvalue.data_version
        keyvalue.delete("a")
        assert keyvalue.data_version > mid

        timeseries = TimeseriesEngine("tsv")
        before = timeseries.data_version
        timeseries.append("s", 1.0, 2.0)
        assert timeseries.data_version > before

        text = TextEngine("txv")
        before = text.data_version
        text.add_document("d1", "hello world")
        assert text.data_version > before

    def test_write_invalidates_pinned_scan_on_next_run(self):
        system = _small_system()
        session = system.session()
        prepared = session.prepare(_orders_program())
        prepared.run()
        replay = prepared.run()
        assert replay.report.cached_tasks > 0

        system.engine("ordersdb").insert("orders", [(1000, 3, 9.0)])
        fresh = prepared.run()
        spend = {row["customer_id"]: row["total"]
                 for row in fresh.output("features").to_dicts()}
        assert spend[3] == pytest.approx(sum(
            float(i % 7) for i in range(100) if i % 10 == 3) + 9.0)

    def test_untouched_engine_entries_stay_pinned(self):
        system = _small_system()
        session = system.session()
        prepared = session.prepare(_orders_program())
        prepared.run()
        # Write only to the timeseries engine: the relational subtree's pins
        # must survive while the timeseries subtree re-reads.
        system.engine("telemetry").append("sessions/0", 99.0, 1.0)
        result = prepared.run()
        cached_kinds = {r.kind for r in result.report.records if r.cached}
        fresh_kinds = {r.kind for r in result.report.records if not r.cached}
        assert "scan" in cached_kinds or "aggregate" in cached_kinds
        assert "ts_summarize" in fresh_kinds

    def test_snapshot_invalidated_counter_and_repin(self):
        system = _small_system()
        session = system.session()
        prepared = session.prepare(_orders_program())
        prepared.run()
        entry = prepared._entry
        pinned_before = entry.snapshot.pinned
        assert pinned_before > 0
        system.engine("ordersdb").insert("orders", [(1001, 4, 1.0)])
        prepared.run()
        assert entry.snapshot.invalidated > 0
        # Fresh results are re-pinned after the invalidating run.
        assert entry.snapshot.pinned == pinned_before
        replay = prepared.run()
        assert replay.report.cached_tasks > 0

    def test_refresh_forces_full_reread_without_version_change(self):
        system = _small_system()
        session = system.session()
        prepared = session.prepare(_orders_program())
        prepared.run()
        refreshed = prepared.run(refresh=True)
        assert refreshed.report.cached_tasks == 0
        assert prepared._entry.snapshot.pinned > 0


class TestProtectiveCopy:
    def test_a_pinned_table_is_copied_by_container_not_row_by_row(self):
        from collections import namedtuple

        from repro.client.cache import _protective_copy

        # A tuple subclass: re-tupling a row would hand back a different object.
        Order = namedtuple("Order", "order_id amount")
        schema = make_schema(("order_id", DataType.INT), ("amount", DataType.FLOAT))
        pinned = Table.wrap(schema, [Order(i, float(i)) for i in range(5)])
        copy = _protective_copy(pinned)
        assert copy.schema is pinned.schema and copy.rows is not pinned.rows
        assert all(mine is theirs for mine, theirs in zip(copy.rows, pinned.rows))
        copy.rows.append((9, 9.0))
        copy.rows.pop(0)
        assert len(pinned) == 5 and pinned.rows[0] == (0, 0.0)

    def test_mutating_a_replayed_result_never_reaches_the_pin(self):
        system = _small_system()
        prepared = system.session().prepare(_orders_program())
        first = prepared.run().output("features")
        expected = list(first.rows)
        first.rows.pop()
        first.rows.append(("poison",))
        replay = prepared.run()
        assert replay.report.cached_tasks > 0
        assert replay.output("features").rows == expected


class TestScopedInvalidation:
    """Satellite: ``data_version`` is per-table/namespace, not per-engine."""

    def _two_table_system(self):
        relational = RelationalEngine("ordersdb")
        schema = make_schema(("order_id", DataType.INT), ("amount", DataType.FLOAT))
        relational.load_table("orders", Table(schema, [
            (i, float(i)) for i in range(50)]))
        relational.load_table("refunds", Table(schema, [
            (i, float(-i)) for i in range(20)]))
        return build_accelerated_polystore([relational])

    def _two_table_program(self):
        from repro.eide.dataflow import DataflowProgram, dataset

        program = DataflowProgram("two-tables")
        source = dataset("ordersdb")
        program.output("orders", source.table("orders"))
        program.output("refunds", source.table("refunds"))
        return program

    def test_write_to_one_table_keeps_other_tables_pinned(self):
        system = self._two_table_system()
        session = system.session()
        prepared = session.prepare(self._two_table_program())
        prepared.run()
        system.engine("ordersdb").insert("refunds", [(999, -1.0)])
        result = prepared.run()
        # Same engine, different table: the orders scan replays from its
        # pin while the refunds scan re-reads.
        cached = {r.cached for r in result.report.records if r.kind == "scan"}
        assert cached == {True, False}
        fresh = [r for r in result.report.records
                 if r.kind == "scan" and not r.cached]
        assert len(fresh) == 1
        assert len(result.output("refunds")) == 21

    def test_write_to_same_table_still_invalidates(self):
        system = self._two_table_system()
        session = system.session()
        prepared = session.prepare(self._two_table_program())
        prepared.run()
        system.engine("ordersdb").insert("orders", [(999, 1.0)])
        result = prepared.run()
        fresh = [r for r in result.report.records if not r.cached]
        assert any(r.kind == "scan" for r in fresh)
        assert len(result.output("orders")) == 51

    def test_per_series_scoping_for_timeseries_reads(self):
        timeseries = TimeseriesEngine("telemetry")
        timeseries.append_many("cpu", [(float(i), 1.0) for i in range(10)])
        timeseries.append_many("mem", [(float(i), 2.0) for i in range(10)])
        system = build_accelerated_polystore([timeseries])
        from repro.eide.dataflow import DataflowProgram, dataset

        program = DataflowProgram("two-series")
        source = dataset("telemetry")
        program.output("cpu", source.series("cpu"))
        program.output("mem", source.series("mem"))
        session = system.session()
        prepared = session.prepare(program)
        prepared.run()
        timeseries.append("mem", 99.0, 3.0)
        result = prepared.run()
        states = sorted(r.cached for r in result.report.records)
        assert states == [False, True]  # cpu pinned, mem re-read


class TestSnapshotRelease:
    """Satellite: evicted/superseded entries release their pinned snapshots."""

    def test_lru_eviction_clears_the_victims_pins(self):
        system = _small_system()
        session = system.session(plan_cache_size=1)
        first = session.prepare(_orders_program())
        first.run()
        entry = first._entry
        assert entry.snapshot.pinned > 0
        # Preparing a different program evicts the first entry...
        other = _orders_program()
        other.output("extra", dataset("ordersdb").sql("SELECT * FROM orders"))
        session.prepare(other)
        # ...and the eviction callback released its pinned engine reads.
        assert entry.snapshot.pinned == 0
        # The live handle simply re-pins on its next run.
        first.run()
        assert entry.snapshot.pinned > 0

    def test_same_key_replacement_clears_the_old_snapshot(self):
        system = _small_system()
        session = system.session()
        prepared = session.prepare(_orders_program())
        prepared.run()
        old_entry = prepared._entry
        assert old_entry.snapshot.pinned > 0
        key = session._plan_key(old_entry.fingerprint, prepared._plan)
        replacement = session.plan_cache.get(key)
        assert replacement is old_entry
        # Simulate what plan aging does: replace the entry under its key.
        from repro.client.cache import CachedPlan, ScanSnapshot

        new_entry = CachedPlan(
            compilation=old_entry.compilation,
            snapshot=ScanSnapshot(old_entry.compilation.graph),
            generation=old_entry.generation,
            fingerprint=old_entry.fingerprint,
            mode=old_entry.mode,
        )
        session.plan_cache.put(key, new_entry)
        assert old_entry.snapshot.pinned == 0

    def test_invalidation_clears_every_entrys_pins(self):
        system = _small_system()
        session = system.session()
        prepared = session.prepare(_orders_program())
        prepared.run()
        entry = prepared._entry
        assert entry.snapshot.pinned > 0
        system.register_engine(RelationalEngine("sidecar"))
        assert entry.snapshot.pinned == 0

    def test_unreferenced_evicted_entries_are_collectable(self):
        import gc
        import weakref

        system = _small_system()
        session = system.session(plan_cache_size=1)
        prepared = session.prepare(_orders_program())
        prepared.run()
        snapshot_ref = weakref.ref(prepared._entry.snapshot)
        entry_ref = weakref.ref(prepared._entry)
        other = _orders_program()
        other.output("extra", dataset("ordersdb").sql("SELECT * FROM orders"))
        session.prepare(other)  # evicts the first entry from the LRU
        del prepared  # drop the only remaining strong reference
        gc.collect()
        assert entry_ref() is None
        assert snapshot_ref() is None


class TestOverlappingRunValidation:
    def test_lookup_declines_pins_stale_for_this_run(self):
        """A run that began after a write must not replay an older run's pin."""
        from repro.client import ScanSnapshot
        from repro.ir.graph import IRGraph
        from repro.ir.nodes import Operator
        from repro.middleware.executor.report import TaskRecord

        system = _small_system()
        graph = IRGraph("g")
        node = graph.add(Operator("scan", {"table": "orders"}, [], "ordersdb"))
        graph.mark_output(node.op_id)
        snapshot = ScanSnapshot(graph)

        # Run A begins at version v1 and reads its value...
        snapshot.begin_run(system.catalog)
        record = TaskRecord(op_id=node.op_id, kind="scan", engine="ordersdb",
                            accelerator=None, stage=0, wall_time_s=0.0,
                            simulated_time_s=0.0)
        # ...the engine is written, and run B begins at v2 (nothing pinned yet).
        value_at_v1 = "rows-read-at-v1"
        system.engine("ordersdb").insert("orders", [(2000, 1, 1.0)])
        snapshot_versions_a = dict(snapshot._run_state.versions)
        snapshot.begin_run(system.catalog)  # B's begin_run on the shared snapshot
        # A's store lands late, tagged with A's (stale) versions.
        snapshot._run_state.versions = snapshot_versions_a
        snapshot.store(node.op_id, value_at_v1, record)
        # B's lookup must decline the stale pin instead of replaying it.
        snapshot._run_state.versions = {
            "ordersdb": system.engine("ordersdb").data_version}
        assert snapshot.lookup(node.op_id) is None
        # A run that matches the pinned versions still replays.
        snapshot._run_state.versions = snapshot_versions_a
        assert snapshot.lookup(node.op_id)[0] == value_at_v1
