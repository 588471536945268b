"""A changelog keeps a batch only while a registered reader is behind it.

With no reader a batch still reaches the WAL sink and the listeners, then
is dropped; a view's cursor registers as a reader, so incremental views stay
exact without the log keeping what no one will read.  A partitioned table
writes to its engine's one log, as any table does."""

from __future__ import annotations

import gc
import random
import sys
import threading

import pytest

from repro import PolystorePlusPlus, col
from repro.compiler.pipeline import CompilerOptions
from repro.datamodel import DataType, Table, make_schema
from repro.eide.dataflow import DataflowProgram, Dataset
from repro.stores import RelationalEngine
from repro.stores.changelog import ChangeLog

ORDERS = make_schema(("order_id", DataType.INT), ("customer_id", DataType.INT),
                     ("amount", DataType.FLOAT))


class Reader:
    """A stand-in for a view's cursor: any weakly referenceable object."""


def _retained(log: ChangeLog) -> tuple[int, int]:
    stats = log.retention_stats()
    return stats["retained_batches"], stats["retained_rows"]


def test_5000_inserts_with_no_reader_retain_nothing():
    engine = RelationalEngine("db")
    engine.load_table("orders", Table(ORDERS, [(0, 0, 1.0)]))
    log = engine.changelog
    logged: list[int] = []
    heard: list[int] = []
    log.attach_wal(lambda batch: logged.append(batch.seq))
    log.subscribe(lambda batch: heard.append(len(batch.entries)))
    engine.insert("orders", [(1, 1, 1.0)])  # warm up the write path
    gc.collect()
    before = len(gc.get_objects())
    first = log.latest_seq + 1
    for i in range(2, 5_002):
        engine.insert("orders", [(i, i % 7, float(i))])
    gc.collect()
    assert len(gc.get_objects()) - before < 100
    assert _retained(log) == (0, 0)
    assert logged[-5_000:] == list(range(first, first + 5_000))
    assert heard[-5_000:] == [1] * 5_000


def test_a_reader_keeps_exactly_the_batches_after_its_position():
    log = ChangeLog()
    for i in range(3):
        log.append("s", [(i, 1)])
    reader, other = Reader(), Reader()
    assert log.register(reader) == 3
    for i in range(3, 8):
        log.append("s", [(i, 1), (i, 1)])
    assert _retained(log) == (5, 10)
    batches, complete = log.read_since(3, "s")
    assert complete and [b.seq for b in batches] == [4, 5, 6, 7, 8]
    assert not log.read_since(2, "s")[1]  # before the hold: resync

    log.register(other, 6)
    log.register(reader, 7)  # moving the oldest reader releases its batches
    assert [b.seq for b in log.read_since(6, "s")[0]] == [7, 8]
    assert _retained(log) == (2, 4)
    log.release(other)
    assert _retained(log) == (1, 2)
    log.register(reader)
    assert _retained(log) == (0, 0)
    assert log.retention_stats()["readers"] == 1


def test_a_collected_reader_holds_nothing():
    log = ChangeLog()
    reader = Reader()
    log.register(reader)
    log.append("s", [(1, 1)])
    assert _retained(log) == (1, 1)
    del reader
    gc.collect()
    log.append("s", [(2, 1)])
    assert _retained(log) == (0, 0)
    assert log.retention_stats()["readers"] == 0


def test_a_stalled_reader_is_bounded_by_the_caps():
    log = ChangeLog(capacity=4, max_rows=100)
    reader = Reader()
    log.register(reader)
    for i in range(10):
        log.append("s", [(i, 1)])
    assert _retained(log) == (4, 4)
    batches, complete = log.read_since(0, "s")
    assert not complete and batches == []  # behind the window: resync


# -- views over single and partitioned bases --------------------------------------------


def _system(shards: int, rows: list[tuple]) -> tuple[PolystorePlusPlus, object]:
    system = PolystorePlusPlus()
    if shards:
        engine = system.register_sharded_engine("base", RelationalEngine, shards)
    else:
        engine = system.register_engine(RelationalEngine("base"))
    engine.load_table("orders", Table(ORDERS, rows))
    return system, engine


def _totals(system: PolystorePlusPlus):
    return (system.dataset("base").table("orders")
            .filter(col("amount") > 5.0)
            .aggregate(["customer_id"], total=("sum", "amount"), n=("count", None)))


def _recomputed(system: PolystorePlusPlus, expr) -> list[tuple]:
    program = DataflowProgram("retention-recompute")
    program.output("res", Dataset(expr.node))
    result = system.execute(program, options=CompilerOptions(use_views=False))
    return sorted(result.output("res").rows)


@pytest.mark.parametrize("policy", ["eager", "deferred"])
@pytest.mark.parametrize("shards", [0, 4])
def test_views_stay_exact_without_a_forced_resync(policy, shards):
    rng = random.Random(5)
    system, engine = _system(shards, [(i, i % 6, float(i % 13)) for i in range(60)])
    expr = _totals(system)
    view = system.create_view("totals", expr, policy=policy)
    bystander = system.create_view("all", system.dataset("base").table("orders"),
                                   policy="manual")
    next_id = 1_000
    for step in range(40):
        kind = step % 4
        if kind == 0:
            engine.insert("orders", [(next_id + k, rng.randrange(6),
                                      float(rng.randrange(13))) for k in range(3)])
            next_id += 3
        elif kind == 1:
            engine.update_rows("orders", col("order_id") == rng.randrange(60),
                               {"amount": float(rng.randrange(13))})
        elif kind == 2:
            engine.delete_rows("orders", col("order_id") == rng.randrange(next_id))
        if step % 3 == 0:
            assert sorted(view.read()[0].rows) == _recomputed(system, expr), step
    assert sorted(view.read()[0].rows) == _recomputed(system, expr)
    assert view.full_recomputes == 0 and view.incremental_refreshes > 0
    # The manual view never refreshed: its cursor holds every batch since
    # its seed, and refreshing it releases them.
    assert _retained(engine.changelog)[0] > 0
    bystander.refresh()
    view.read()
    assert bystander.full_recomputes == 0
    assert _retained(engine.changelog) == (0, 0)


def test_dropping_a_view_and_collecting_it_releases_its_hold():
    system, engine = _system(0, [(i, i % 6, float(i)) for i in range(20)])
    view = system.create_view("totals", _totals(system), policy="manual")
    engine.insert("orders", [(100, 1, 50.0)])
    assert _retained(engine.changelog) == (1, 1)
    system.drop_view("totals")
    del view
    gc.collect()
    engine.insert("orders", [(101, 1, 50.0)])
    assert _retained(engine.changelog) == (0, 0)
    assert engine.changelog.retention_stats()["readers"] == 0


# -- threads ---------------------------------------------------------------------------


@pytest.mark.parametrize("shards", [0, 4])
def test_writers_race_a_refresh_while_a_reader_registers_and_drops(shards):
    system, engine = _system(shards, [(i, i % 6, float(i % 13)) for i in range(40)])
    expr = _totals(system)
    view = system.create_view("totals", expr, policy="deferred")
    log = engine.changelog
    done = threading.Event()
    errors: list[Exception] = []

    def guarded(body):
        def run():
            try:
                body()
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)
        return run

    def writer(base: int):
        def body():
            for k in range(150):
                engine.insert("orders", [(base + k, k % 6, float(k % 13))])
        return body

    def refresher():
        while not done.is_set():
            view.read()

    def churn():
        rng = random.Random(3)
        while not done.is_set():
            reader = Reader()
            log.register(reader)
            log.read_since(log.register(reader, max(log.latest_seq - 2, 0)))
            if rng.random() < 0.5:
                log.release(reader)
            del reader  # else collected while still registered

    writers = [threading.Thread(target=guarded(writer(10_000 * (w + 1))))
               for w in range(2)]
    others = [threading.Thread(target=guarded(refresher)),
              threading.Thread(target=guarded(churn))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often: registrations land mid-append
    try:
        for thread in writers + others:
            thread.start()
        for thread in writers:
            thread.join(60)
        done.set()
        for thread in others:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers + others)
    assert not errors, errors
    assert sorted(view.read()[0].rows) == _recomputed(system, expr)
    assert view.full_recomputes == 0
    gc.collect()
    engine.insert("orders", [(1, 1, 1.0)])
    view.read()
    assert _retained(log) == (0, 0)
    system.close()
