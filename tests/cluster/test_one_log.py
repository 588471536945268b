"""A sharded engine keeps one changelog and one set of version counters.

Every batch a serving shard logs reaches the facade's log, whether the write
was routed through the facade or made on the shard directly; views and
pinned reads trust the facade alone.  A rebalance cutover logs nothing and
moves every version up once.
"""

from __future__ import annotations

from repro import PolystorePlusPlus, col
from repro.cluster import HashPartitioner
from repro.compiler.pipeline import CompilerOptions
from repro.datamodel import DataType, Table, make_schema
from repro.eide.dataflow import DataflowProgram, Dataset
from repro.stores import RelationalEngine
from repro.stores.changelog import PageEntry, table_scope

EVENTS = make_schema(("row_id", DataType.INT), ("grp", DataType.STRING),
                     ("value", DataType.FLOAT))


def _deploy(shards: int, rows: list[tuple]):
    system = PolystorePlusPlus()
    engine = system.register_sharded_engine("base", RelationalEngine, shards)
    engine.load_table("events", Table(EVENTS, rows))
    return system, engine


def _counts(system):
    return system.dataset("base").table("events").aggregate(["grp"], n=("count", None))


def _recompute(system, expr):
    program = DataflowProgram("recompute")
    program.output("res", Dataset(expr.node))
    result = system.execute(program, options=CompilerOptions(use_views=False))
    return sorted(tuple(row.values()) for row in result.output("res").to_dicts())


def test_direct_shard_write_then_routed_write_refresh_incrementally():
    system, engine = _deploy(2, [(i, "alpha", 1.0) for i in range(6)])
    expr = _counts(system)
    view = system.create_view("counts", expr, policy="manual")
    engine.shard(1).insert("events", [(101, "beta", 1.0)])  # not routed
    engine.insert("events", [(102, "alpha", 1.0)])           # routed
    outcome = view.refresh()
    assert outcome.kind == "incremental"
    got = sorted(tuple(row.values()) for row in view.read()[0].to_dicts())
    assert got == _recompute(system, expr) == [("alpha", 7), ("beta", 1)]


def test_routed_update_appends_one_facade_batch_per_shard_batch_and_holds_no_shard_log():
    _, engine = _deploy(4, [(i, "alpha", float(i)) for i in range(40)])
    facade: list = []
    shard_batches: list = []
    readers_during: list[int] = []
    engine.changelog.subscribe(facade.append)
    for shard in engine.shards:
        def heard(batch, log=shard.changelog):
            shard_batches.append(batch)
            readers_during.append(log.retention_stats()["readers"])
        shard.changelog.subscribe(heard)

    engine.update_rows("events", col("value") >= 0.0, {"value": 1.0})

    assert len(shard_batches) == 4  # every shard holds matching rows
    assert len(facade) == len(shard_batches)
    assert sorted(e for b in facade for e in b.entries) == \
        sorted(e for b in shard_batches for e in b.entries)
    assert readers_during == [0, 0, 0, 0]
    assert [shard.changelog.retention_stats()["readers"]
            for shard in engine.shards] == [0, 0, 0, 0]


def test_pinned_read_sees_a_direct_shard_write_on_its_next_run():
    system, engine = _deploy(2, [(i, "alpha", 1.0) for i in range(10)])
    program = DataflowProgram("scan-events")
    program.output("events", system.dataset("base").table("events"))
    prepared = system.session().prepare(program)
    assert len(prepared.run().output("events")) == 10
    assert any(r.cached for r in prepared.run().report.records)
    engine.shard(0).insert("events", [(100, "beta", 1.0)])  # not routed
    result = prepared.run()
    assert len(result.output("events")) == 11
    assert not any(r.cached for r in result.report.records)


def test_rebalance_moves_every_scoped_version_up_and_resyncs_no_view():
    system, engine = _deploy(2, [(i, "alpha", 1.0) for i in range(20)])
    engine.shard(0).load_table("side", Table(EVENTS, [(1, "beta", 1.0)]))
    view = system.create_view("counts", _counts(system), policy="manual")
    scopes = sorted(engine.known_scopes()) + [table_scope("never-written")]
    assert table_scope("side") in scopes
    before = {scope: engine.data_version_for(scope) for scope in scopes}
    version = engine.data_version

    system.rebalance_sharded_engine("base", 4)

    assert engine.data_version > version
    assert all(engine.data_version_for(scope) > before[scope] for scope in scopes)
    assert view.refresh().kind == "noop"
    engine.insert("events", [(100, "alpha", 1.0)])
    assert view.refresh().kind == "incremental"
    assert view.full_recomputes == 0
    assert view.read()[0].to_dicts() == [{"grp": "alpha", "n": 21}]


def test_only_serving_shards_reach_the_facade_log():
    _, engine = _deploy(2, [(i, "alpha", 1.0) for i in range(20)])
    serving = engine.shards
    head = engine.changelog.latest_seq
    for payload in engine.begin_rebalance(HashPartitioner(3)):
        engine.apply_payload(payload)
    pending, _ = engine.pending_topology()
    pending[0].insert("events", [(200, "beta", 1.0)])
    assert engine.changelog.latest_seq == head  # copies and pending writes
    engine.cutover()
    assert engine.changelog.latest_seq == head  # the swap itself
    serving[0].insert("events", [(201, "beta", 1.0)])  # a retired shard
    assert engine.changelog.latest_seq == head
    engine.shard(2).insert("events", [(202, "beta", 1.0)])
    assert engine.changelog.latest_seq == head + 1


def test_a_direct_shard_write_recovers_with_the_facade_versions(tmp_path):
    system = PolystorePlusPlus(data_dir=str(tmp_path))
    engine = system.register_sharded_engine("base", RelationalEngine, 2)
    engine.load_table("events", Table(EVENTS, [(i, "alpha", 1.0) for i in range(8)]))
    engine.shard(1).insert("events", [(100, "beta", 1.0)])
    engine.insert("events", [(101, "alpha", 1.0)])
    expected = (sorted(engine.scan("events").rows), engine.data_version,
                engine.data_version_for(table_scope("events")))
    system.close()

    reborn = PolystorePlusPlus(data_dir=str(tmp_path))
    engine = reborn.register_sharded_engine("base", RelationalEngine, 2)
    assert (sorted(engine.scan("events").rows), engine.data_version,
            engine.data_version_for(table_scope("events"))) == expected
    engine.shard(0).insert("events", [(102, "beta", 1.0)])  # relayed once
    assert engine.data_version_for(table_scope("events")) == expected[2] + 1
    reborn.close()


def test_a_four_shard_whole_page_delete_refreshes_a_view_exactly_through_the_relay():
    system = PolystorePlusPlus()
    engine = system.register_sharded_engine("base", RelationalEngine, 4)
    engine.load_table("events", Table(EVENTS, [(i, "ab"[i % 2], float(i % 5))
                                               for i in range(120)]), page_capacity=4)
    expr = (system.dataset("base").table("events").filter(col("value") > 0.5)
            .aggregate(["grp"], total=("sum", "value"), n=("count", None)))
    view = system.create_view("spend", expr, policy="manual")
    facade: list = []
    engine.changelog.subscribe(facade.append)
    shard_batches: list = []
    for shard in engine.shards:
        shard.changelog.subscribe(shard_batches.append)

    engine.delete_rows("events", col("row_id") < 80)
    pages = [part.page for batch in shard_batches for part in batch.parts
             if type(part) is PageEntry]
    assert len(pages) >= 8  # each shard's ~20 rows below 80 fill pages of 4
    # The relay forwards the parts as they are: the same page entries.
    assert [batch.parts for batch in facade] == [batch.parts for batch in shard_batches]
    assert view.refresh().kind == "incremental"
    got = sorted(tuple(row.values()) for row in view.read()[0].to_dicts())
    assert got == _recompute(system, expr) and got
