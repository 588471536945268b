"""Crash recovery: restart roundtrips, hard kills, twins and views.

The twin pattern: apply the same mutations to a durable system and to a
never-persisted engine, crash (or close) the durable one, recover it from
disk, and require byte-identical reads *and* identical scoped data versions
and changelog positions — recovery must be indistinguishable from having
never crashed.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro import PolystorePlusPlus, col
from repro.cluster import ShardedEngine
from repro.compiler.pipeline import CompilerOptions
from repro.core.system import SystemConfig
from repro.datamodel import DataType, Table, make_schema
from repro.durability import InjectedFault, faults
from repro.durability.snapshot import load_manifest, load_snapshot
from repro.durability.state import dump_state, restore_state
from repro.eide.dataflow import DataflowProgram, Dataset
from repro.exceptions import ConfigurationError
from repro.stores import (
    GraphEngine,
    KeyValueEngine,
    RelationalEngine,
    TextEngine,
    TimeseriesEngine,
)
from repro.stores.changelog import table_scope

SCHEMA = make_schema(("order_id", DataType.INT), ("customer", DataType.STRING),
                     ("amount", DataType.FLOAT))


@pytest.fixture(autouse=True)
def _clear_faults():
    faults.clear()
    yield
    faults.clear()


def _config(data_dir, **overrides) -> SystemConfig:
    defaults = {"data_dir": str(data_dir), "durability_sync": "always"}
    defaults.update(overrides)
    return SystemConfig(**defaults)


def _relational_ops(db):
    db.create_table("orders", SCHEMA)
    db.insert("orders", [(i, f"c{i % 5}", float(i % 9)) for i in range(60)])
    db.create_index("orders", "customer", kind="hash")
    db.delete_rows("orders", col("order_id") < 8)
    db.update_rows("orders", col("order_id") == 11, {"amount": 99.0})


def _kv_ops(kv):
    for i in range(25):
        kv.put(f"user/{i:03d}", {"clicks": i})
    kv.delete("user/007")
    kv.compact()


def _ts_ops(ts):
    ts.create_series("cpu", {"host": "a"})
    for i in range(30):
        ts.append("cpu", float(i), float(i % 5))
    ts.append_many("mem", [(float(i), 1.0) for i in range(10)])


def _text_ops(text):
    for i in range(12):
        text.add_document(f"d{i}", f"polystore shard number {i}", metadata={"n": i})
    if not isinstance(text, ShardedEngine):  # the fabric routes no document removal
        text.remove_document("d3")


def _engine_fingerprint(engine):
    """Everything recovery must reproduce exactly for one engine."""
    state: dict = {
        "scoped": {scope: engine.data_version_for(scope)
                   for scope in sorted(engine.known_scopes())},
        "data_version": engine.data_version,
        "log_head": engine.changelog.latest_seq,
    }
    if isinstance(engine, RelationalEngine):
        state["tables"] = {
            name: list(engine.snapshot_scan(name)[0].rows)
            for name in engine.list_tables()
        }
    elif isinstance(engine, KeyValueEngine):
        state["data"] = list(engine.scan())
    elif isinstance(engine, TimeseriesEngine):
        state["series"] = {
            key: [(p.timestamp, p.value) for p in engine.series(key)]
            for key in engine.list_series()
        }
    elif isinstance(engine, TextEngine):
        state["docs"] = {d: engine.get(d) for d in engine.documents_matching({})}
        state["search"] = engine.search("polystore")
    return state


class TestCleanRestart:
    def test_all_four_engines_roundtrip(self, tmp_path):
        system = PolystorePlusPlus(data_dir=str(tmp_path))
        engines = {
            "ordersdb": system.register_engine(RelationalEngine("ordersdb")),
            "profiles": system.register_engine(
                KeyValueEngine("profiles", memtable_capacity=8)),
            "metrics": system.register_engine(TimeseriesEngine("metrics")),
            "docs": system.register_engine(TextEngine("docs")),
        }
        _relational_ops(engines["ordersdb"])
        _kv_ops(engines["profiles"])
        _ts_ops(engines["metrics"])
        _text_ops(engines["docs"])
        expected = {name: _engine_fingerprint(e) for name, e in engines.items()}
        system.close()

        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        recovered = {
            "ordersdb": reborn.register_engine(RelationalEngine("ordersdb")),
            "profiles": reborn.register_engine(
                KeyValueEngine("profiles", memtable_capacity=8)),
            "metrics": reborn.register_engine(TimeseriesEngine("metrics")),
            "docs": reborn.register_engine(TextEngine("docs")),
        }
        for name, engine in recovered.items():
            assert _engine_fingerprint(engine) == expected[name], name
        # A clean close checkpointed everything: the tail is empty.
        for report in reborn.durability.recovery_report().values():
            assert report["restored"] and report["replayed_batches"] == 0

    def test_secondary_index_recovers_via_meta_replay(self, tmp_path):
        system = PolystorePlusPlus(data_dir=str(tmp_path))
        db = system.register_engine(RelationalEngine("ordersdb"))
        _relational_ops(db)
        system.close()

        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        db2 = reborn.register_engine(RelationalEngine("ordersdb"))
        assert "customer" in db2._tables["orders"].hash_indexes
        index = db2._tables["orders"].hash_indexes["customer"]
        assert sorted(index.lookup("c1"))  # populated, not just present

    def test_unsupported_engine_is_skipped_not_broken(self, tmp_path):
        system = PolystorePlusPlus(data_dir=str(tmp_path))
        graph = system.register_engine(GraphEngine("net"))
        graph.add_node("a", "person")
        graph.add_node("b", "person")
        graph.add_edge("a", "b", "knows")
        description = system.durability.describe()
        assert "net" in description["skipped_engines"]
        assert "net" not in description["engines"]
        system.close()

    def test_mismatched_engine_type_is_rejected(self, tmp_path):
        system = PolystorePlusPlus(data_dir=str(tmp_path))
        system.register_engine(KeyValueEngine("store"))
        system.close()
        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        with pytest.raises(ConfigurationError):
            reborn.register_engine(TextEngine("store"))

    def test_double_open_rejected_and_close_is_idempotent(self, tmp_path):
        system = PolystorePlusPlus(data_dir=str(tmp_path))
        with pytest.raises(ConfigurationError):
            system.open(str(tmp_path))
        system.close()
        system.close()


class TestHardKill:
    def test_mid_append_kill_matches_never_crashed_twin(self, tmp_path):
        system = PolystorePlusPlus(_config(tmp_path))
        db = system.register_engine(RelationalEngine("ordersdb"))
        twin = RelationalEngine("ordersdb")
        for engine in (db, twin):
            _relational_ops(engine)
        expected = _engine_fingerprint(twin)

        faults.arm("wal.append")
        with pytest.raises(InjectedFault):
            db.insert("orders", [(999, "doomed", 1.0)])
        # The in-memory system saw the doomed write; disk must not have.
        assert any(r[0] == 999 for r in db.snapshot_scan("orders")[0].rows)

        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        db2 = reborn.register_engine(RelationalEngine("ordersdb"))
        assert _engine_fingerprint(db2) == expected
        report = reborn.durability.recovery_report()["ordersdb"]
        assert report["truncated_records"] == 1

    def test_mid_snapshot_kill_recovers_from_previous_checkpoint(self, tmp_path):
        system = PolystorePlusPlus(_config(tmp_path, durability_snapshot_every=5))
        kv = system.register_engine(KeyValueEngine("profiles"))
        twin = KeyValueEngine("profiles")
        for i in range(3):
            kv.put(f"k{i}", i)
            twin.put(f"k{i}", i)
        faults.arm("snapshot.write")
        # The 5th WAL record triggers a checkpoint inside the write; the
        # snapshot dies pre-rename, but the write's WAL record already
        # landed — recovery must include it.
        with pytest.raises(InjectedFault):
            for i in range(3, 10):
                kv.put(f"k{i}", i)
        for i in range(3, 5):
            twin.put(f"k{i}", i)

        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        kv2 = reborn.register_engine(KeyValueEngine("profiles"))
        assert _engine_fingerprint(kv2) == _engine_fingerprint(twin)
        report = reborn.durability.recovery_report()["profiles"]
        assert report["replayed_batches"] > 0

    def test_recovery_replays_only_the_tail(self, tmp_path):
        system = PolystorePlusPlus(_config(tmp_path))
        kv = system.register_engine(KeyValueEngine("profiles"))
        for i in range(40):
            kv.put(f"pre/{i}", i)
        system.durability.checkpoint()
        for i in range(7):
            kv.put(f"post/{i}", i)
        faults.arm("wal.append")
        with pytest.raises(InjectedFault):
            kv.put("doomed", 0)

        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        kv2 = reborn.register_engine(KeyValueEngine("profiles"))
        report = reborn.durability.recovery_report()["profiles"]
        # Only the 7 post-checkpoint records replay, not all 47.
        assert report["replayed_batches"] == 7
        assert kv2.get("pre/39") == 39 and kv2.get("post/6") == 6
        assert kv2.get("doomed") is None

    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
    @pytest.mark.parametrize("engine_cls", [TimeseriesEngine, TextEngine])
    def test_kill_without_checkpoint_replays_timeseries_and_text(
            self, tmp_path, engine_cls, sharded):
        """Nothing was checkpointed: every op comes back through the WAL tail."""
        def deploy(system):
            if sharded:
                return system.register_sharded_engine("store", engine_cls, 2)
            return system.register_engine(engine_cls("store"))

        ops = _ts_ops if engine_cls is TimeseriesEngine else _text_ops
        engine = deploy(PolystorePlusPlus(_config(tmp_path)))
        twin = deploy(PolystorePlusPlus())
        for target in (engine, twin):
            ops(target)
        faults.arm("wal.append")
        with pytest.raises(InjectedFault):
            if engine_cls is TimeseriesEngine:
                engine.append("cpu", 999.0, 1.0)
            else:
                engine.add_document("doomed", "polystore lost")

        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        recovered = deploy(reborn)
        assert _engine_fingerprint(recovered)["scoped"] == \
            _engine_fingerprint(twin)["scoped"]
        pairs = zip(recovered.shards, twin.shards) if sharded else [(recovered, twin)]
        for mine, theirs in pairs:
            assert _engine_fingerprint(mine) == _engine_fingerprint(theirs)
        report = reborn.durability.recovery_report()["store"]
        assert report["replayed_batches"] >= 12
        assert sum(r["truncated_records"] for r in report.get("shards", [report])) == 1

    def test_torn_multi_row_insert_recovers_consistently(self, tmp_path):
        system = PolystorePlusPlus(_config(tmp_path))
        db = system.register_engine(RelationalEngine("ordersdb"))
        db.create_table("orders", SCHEMA)
        with pytest.raises(Exception):
            # Row 3 fails validation after two rows landed in the heap; the
            # engine logs a gap whose op carries the landed rows.
            db.insert("orders", [(1, "a", 1.0), (2, "b", 2.0),
                                 ("bad", object(), None)], validate=True)
        live = _engine_fingerprint(db)
        system.close()

        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        db2 = reborn.register_engine(RelationalEngine("ordersdb"))
        assert _engine_fingerprint(db2) == live


class TestRewriteRecovery:
    """``update_rows`` / ``delete_rows`` replay through the engine's own
    page-level rewrite: a table recovered from the WAL alone, one restored
    from a snapshot and the live one answer identically."""

    @staticmethod
    def _answers(db):
        scan = db.scan("orders").rows
        answers = {"scan": scan}
        for customer in ("c0", "c1", "c4", "moved", "nobody"):
            answers["customer", customer] = db.index_lookup(
                "orders", "customer", customer).rows
        for amount in (0.0, 4.0, 99.0):
            answers["amount", amount] = db.index_lookup(
                "orders", "amount", amount).rows
        answers["amount range"] = db.range_lookup("orders", "amount", 2.0, 6.0).rows
        answers["ids"] = db.range_lookup("orders", "order_id").rows
        return answers

    def _check(self, db, tmp_path, step):
        """Live == recovered from a copy of the WAL == restored from a dump."""
        live = self._answers(db)
        assert sorted(live["ids"]) == sorted(live["scan"])
        copy = tmp_path / f"copy{step}"
        shutil.copytree(tmp_path / "data", copy)
        replayed_system = PolystorePlusPlus(data_dir=str(copy))
        replayed = replayed_system.register_engine(RelationalEngine("ordersdb"))
        report = replayed_system.durability.recovery_report()["ordersdb"]
        assert report["replayed_batches"] > 0
        assert self._answers(replayed) == live
        assert _engine_fingerprint(replayed) == _engine_fingerprint(db)
        replayed_system.close()
        restored = RelationalEngine("ordersdb")
        restore_state(restored, dump_state(db))
        assert self._answers(restored) == live

    def test_live_replayed_and_restored_tables_agree(self, tmp_path):
        # No checkpoint before the end: the copies recover from the WAL alone.
        system = PolystorePlusPlus(_config(tmp_path / "data",
                                           durability_snapshot_every=10_000))
        db = system.register_engine(RelationalEngine("ordersdb"))
        db.create_table("orders", SCHEMA, page_capacity=8)
        db.create_index("orders", "customer", kind="hash")
        db.create_index("orders", "amount", kind="sorted")
        db.insert("orders", [(i, f"c{i % 5}", float(i % 9)) for i in range(60)])
        # Duplicate rows: replay finds rows by value, occurrence by occurrence.
        db.insert("orders", [(7, "c2", 7.0), (7, "c2", 7.0), (8, "c3", 8.0)])
        db.create_index("orders", "order_id", kind="sorted")
        db.update_rows("orders", col("order_id") == 7, {"amount": 99.0})
        db.delete_rows("orders", (col("order_id") >= 10) & (col("order_id") < 31))
        db.update_rows("orders", col("amount") > 6.0, {"customer": "moved"})
        db.delete_rows("orders", col("order_id").isin(50, 51, 52))
        self._check(db, tmp_path, 1)
        # Empty the last page (ids 56..59 and the three late rows): the
        # under-full page before it (48, 49, 53, 54, 55) becomes the last one
        # and takes the next inserts — in a restored table too, page for page.
        db.delete_rows("orders", (col("order_id") >= 56) | (col("order_id") < 9))
        db.insert("orders", [(100 + i, "c1", 4.0) for i in range(11)])
        db.update_rows("orders", col("customer").eq("c1"), {"amount": 4.0})
        self._check(db, tmp_path, 2)
        # Empty the table, and start over in it.
        remaining = db.table_statistics("orders")["rows"]
        assert len(db.delete_rows("orders", col("order_id") >= 0)) == remaining
        assert db.scan("orders").rows == []
        db.insert("orders", [(200 + i, "c4", float(i)) for i in range(10)])
        db.delete_rows("orders", col("order_id").eq(203))
        self._check(db, tmp_path, 3)
        expected = self._answers(db)
        system.close()
        # A clean close checkpoints: this one comes back from the snapshot.
        reborn = PolystorePlusPlus(data_dir=str(tmp_path / "data"))
        db2 = reborn.register_engine(RelationalEngine("ordersdb"))
        report = reborn.durability.recovery_report()["ordersdb"]
        assert report["restored"] and report["replayed_batches"] == 0
        assert self._answers(db2) == expected


class TestShardedDurability:
    def _deploy(self, tmp_path, num_shards=2, **overrides):
        system = PolystorePlusPlus(_config(tmp_path, **overrides))
        engine = system.register_sharded_engine("ordersdb", RelationalEngine,
                                                num_shards)
        return system, engine

    def test_sharded_roundtrip_preserves_topology_and_data(self, tmp_path):
        system, engine = self._deploy(tmp_path, num_shards=3)
        engine.load_table("orders", Table(SCHEMA, [
            (i, f"c{i % 5}", float(i)) for i in range(50)
        ]))
        engine.create_index("orders", "customer")
        expected = _engine_fingerprint(engine)
        expected_rows = sorted(engine.scan("orders").rows)
        system.close()

        # The constructor asks for 2 shards; the persisted 3-shard topology
        # must win.
        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        engine2 = reborn.register_sharded_engine("ordersdb", RelationalEngine, 2)
        assert engine2.num_shards == 3
        assert sorted(engine2.scan("orders").rows) == expected_rows
        assert _engine_fingerprint(engine2)["scoped"] == expected["scoped"]
        assert engine2.has_index("orders", "customer")

    def test_directory_an_online_resize_wrote_opens_on_its_recorded_shards(
            self, tmp_path):
        # data/legacy-sharded was written by the last release that could
        # resize a sharded engine online: a durable 2-shard ordersdb, create
        # orders (4 rows a page), insert ids 0..39, hash index on customer,
        # resize to 4 shards (manifest generation 1, shards under g1-s*, a
        # facade snapshot carrying table_kwargs); then — the WAL tail —
        # insert ids 100 and 101, insert id 102, and a hard kill.
        data_dir = tmp_path / "data"
        shutil.copytree(Path(__file__).parent / "data" / "legacy-sharded", data_dir)
        facade = data_dir / "engines" / "ordersdb"
        manifest = load_manifest(facade)
        assert manifest["generation"] == 1
        assert "table_kwargs" in load_snapshot(facade, manifest["snapshot"])
        expected = [(i, f"c{i % 5}", float(i % 9)) for i in range(40)]
        expected += [(100, "c9", 1.5), (101, "c9", 2.5), (102, "c7", 3.5)]

        def check(system, engine, replayed):
            report = system.durability.recovery_report()["ordersdb"]
            assert report["generation"] == 1
            assert report["replayed_batches"] == replayed
            assert engine.num_shards == 4
            assert sorted(engine.scan("orders").rows) == expected
            for index, shard in enumerate(engine.shards):
                assert all(engine.partitioner.shard_for(row[0]) == index
                           for row in shard.scan("orders").rows)
                assert shard._tables["orders"].heap.page_capacity == 4
            # What the writing release read back after its own recovery.
            assert _engine_fingerprint(engine)["scoped"] == {table_scope("orders"): 9}
            assert (engine.data_version, engine.changelog.latest_seq) == (9, 8)
            assert engine.has_index("orders", "customer")

        system = PolystorePlusPlus(data_dir=str(data_dir))
        engine = system.register_sharded_engine("ordersdb", RelationalEngine, 2)
        check(system, engine, replayed=3)
        engine.insert("orders", [(103, "c3", 4.5)])
        owner = engine.shard(engine.partitioner.shard_for(103))
        assert (103, "c3", 4.5) in owner.scan("orders").rows
        expected.append((103, "c3", 4.5))
        scoped = engine.data_version_for(table_scope("orders"))
        system.close()
        assert "table_kwargs" not in load_snapshot(
            facade, load_manifest(facade)["snapshot"])
        assert sorted(p.name for p in (facade / "shards").iterdir()) == [
            f"g1-s{i}" for i in range(4)]

        reborn = PolystorePlusPlus(data_dir=str(data_dir))
        engine = reborn.register_sharded_engine("ordersdb", RelationalEngine, 2)
        assert engine.num_shards == 4
        assert sorted(engine.scan("orders").rows) == sorted(expected)
        assert engine.data_version_for(table_scope("orders")) == scoped
        assert reborn.durability.recovery_report()["ordersdb"]["replayed_batches"] == 0
        reborn.close()

    def test_kill_during_routed_write_matches_twin(self, tmp_path):
        system, engine = self._deploy(tmp_path, num_shards=2)
        twin = PolystorePlusPlus().register_sharded_engine(
            "ordersdb", RelationalEngine, 2)
        for target in (engine, twin):
            target.load_table("orders", Table(SCHEMA, [
                (i, f"c{i % 5}", float(i)) for i in range(30)
            ]))
        # Kill inside the *shard* WAL append of the doomed row's write.
        faults.arm("wal.append")
        with pytest.raises(InjectedFault):
            engine.insert("orders", [(999, "doomed", 1.0)])

        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        engine2 = reborn.register_sharded_engine("ordersdb", RelationalEngine, 2)
        assert sorted(engine2.scan("orders").rows) == sorted(
            twin.scan("orders").rows)
        assert _engine_fingerprint(engine2)["scoped"] == \
            _engine_fingerprint(twin)["scoped"]


def _spend_expr(system):
    return (system.dataset("salesdb").table("orders")
            .filter(col("amount") > 1.0)
            .aggregate(["customer"], total=("sum", "amount")))


def _recompute(system):
    program = DataflowProgram("recompute-baseline")
    program.output("res", Dataset(_spend_expr(system).node))
    result = system.execute(program, options=CompilerOptions(use_views=False))
    return sorted(tuple(sorted(r.items()))
                  for r in result.output("res").to_dicts())


def _view_rows(view):
    return sorted(tuple(sorted(r.items())) for r in view.read()[0].to_dicts())


class TestViewRecovery:
    def _populate(self, system):
        db = system.register_engine(RelationalEngine("salesdb"))
        db.create_table("orders", SCHEMA)
        db.insert("orders", [(i, f"c{i % 4}", float(i % 7)) for i in range(50)])
        return db

    def test_view_definition_survives_restart_and_refresh_matches(self, tmp_path):
        system = PolystorePlusPlus(_config(tmp_path))
        self._populate(system)
        system.create_view("spend", _spend_expr(system), policy="manual")
        system.close()

        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        db2 = reborn.register_engine(RelationalEngine("salesdb"))
        # The view re-registered (resync-from-snapshot) as soon as its
        # source engine came back.
        assert "spend" in reborn.views.names()
        view = reborn.view("spend")
        assert _view_rows(view) == _recompute(reborn)
        db2.insert("orders", [(1000, "c1", 40.0)])
        view.refresh()
        assert _view_rows(view) == _recompute(reborn)

    def test_view_refresh_equals_recompute_after_hard_kill(self, tmp_path):
        system = PolystorePlusPlus(_config(tmp_path))
        db = self._populate(system)
        system.create_view("spend", _spend_expr(system), policy="manual")
        db.insert("orders", [(2000, "c2", 30.0)])
        faults.arm("wal.append")
        with pytest.raises(InjectedFault):
            db.insert("orders", [(2001, "c3", 31.0)])

        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        db2 = reborn.register_engine(RelationalEngine("salesdb"))
        view = reborn.view("spend")
        assert _view_rows(view) == _recompute(reborn)
        db2.delete_rows("orders", col("customer") == "c2")
        view.refresh()
        assert _view_rows(view) == _recompute(reborn)

    def test_dropped_view_stays_dropped_after_restart(self, tmp_path):
        system = PolystorePlusPlus(_config(tmp_path))
        self._populate(system)
        system.create_view("spend", _spend_expr(system), policy="manual")
        system.drop_view("spend")
        system.close()

        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        reborn.register_engine(RelationalEngine("salesdb"))
        assert "spend" not in reborn.views.names()

    def test_view_waits_for_its_source_engine(self, tmp_path):
        system = PolystorePlusPlus(_config(tmp_path))
        self._populate(system)
        system.register_engine(KeyValueEngine("other"))
        system.create_view("spend", _spend_expr(system), policy="manual")
        system.close()

        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        reborn.register_engine(KeyValueEngine("other"))
        assert "spend" not in reborn.views.names()  # salesdb not back yet
        reborn.register_engine(RelationalEngine("salesdb"))
        assert "spend" in reborn.views.names()


    def test_views_file_written_by_an_older_release_restores(self, tmp_path):
        # data/views.pkl was written by PR 14 (9444e7a), the last commit with
        # the fragment builder: one manual view ``spend_sorted`` =
        # orders.filter(amount > 1.0).aggregate([customer], total=sum(amount))
        # .sort(total) over salesdb.  (Views reject ``Param`` placeholders, so
        # no persisted definition can hold one.)
        shutil.copy(Path(__file__).parent / "data" / "views.pkl",
                    tmp_path / "views.pkl")
        db = RelationalEngine("salesdb")
        db.create_table("orders", SCHEMA)
        db.insert("orders", [(i, f"c{i % 4}", float(i % 7)) for i in range(50)])
        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        reborn.register_engine(db)
        assert reborn.views.names() == ["spend_sorted"]
        assert reborn.view("spend_sorted").read()[0].to_dicts() == [
            {"customer": "c3", "total": 32.0}, {"customer": "c2", "total": 35.0},
            {"customer": "c1", "total": 36.0}, {"customer": "c0", "total": 37.0}]


class TestDescribe:
    def test_describe_reports_durability(self, tmp_path):
        system = PolystorePlusPlus(_config(tmp_path))
        system.register_engine(KeyValueEngine("profiles"))
        info = system.describe()["durability"]
        assert info["path"] == str(tmp_path)
        assert info["sync"] == "always"
        assert info["engines"] == ["profiles"]
        system.close()
        assert system.describe()["durability"] is None
