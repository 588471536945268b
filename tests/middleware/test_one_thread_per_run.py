"""A run starts no thread: every operator and every read of a partitioned
table executes on the thread that called the executor."""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro import DataflowProgram, SystemConfig, col
from repro.cluster import HashPartitioner
from repro.core import build_accelerated_polystore, build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.middleware.adapters import Adapter
from repro.stores import MLEngine, RelationalEngine, TextEngine, TimeseriesEngine
from repro.stores.relational.engine import HeapRead
from repro.workloads import build_mimic_program, generate_mimic, load_mimic


def _adapter_classes(base: type = Adapter):
    for cls in base.__subclasses__():
        yield cls
        yield from _adapter_classes(cls)


@contextlib.contextmanager
def _spy(monkeypatch):
    """Record every ``Thread.start`` and the thread of every adapter call."""
    starts: list[str] = []
    callers: list[int] = []
    start = threading.Thread.start

    def counting_start(thread):
        starts.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for cls in set(_adapter_classes()):
        if "execute" not in vars(cls):
            continue

        def execute(self, node, inputs, _execute=vars(cls)["execute"]):
            callers.append(threading.get_ident())
            return _execute(self, node, inputs)

        monkeypatch.setattr(cls, "execute", execute)
    yield starts, callers
    monkeypatch.undo()


def _assert_one_thread(starts: list[str], callers: list[int]) -> None:
    assert starts == []
    assert callers and set(callers) == {threading.get_ident()}


@pytest.mark.parametrize("obs", [True, False])
def test_partitioned_scan_aggregate_starts_no_thread(monkeypatch, obs):
    schema = make_schema(("id", DataType.INT), ("grp", DataType.INT),
                         ("amount", DataType.FLOAT))
    rows = [(i, i % 7, float(i % 50)) for i in range(2_000)]
    system = build_cpu_polystore([], config=SystemConfig(obs_enabled=obs))
    engine = system.register_sharded_engine(
        "facts4", RelationalEngine, partitioner=HashPartitioner(4))
    engine.load_table("facts", Table(schema, rows), shard_key="id")
    program = DataflowProgram("scan_agg")
    program.output("agg", system.dataset("facts4").table("facts")
                   .filter(col("amount") > 10.0)
                   .aggregate(["grp"], n=("count", None), total=("sum", "amount")))
    session = system.session(name="scan")
    prepared = session.prepare(program)
    with _spy(monkeypatch) as (starts, callers):
        table = HeapRead.table

        def read(self):
            callers.append(threading.get_ident())
            reads.append(self.heap)
            return table(self)

        reads: list = []
        monkeypatch.setattr(HeapRead, "table", read)
        result = prepared.run(refresh=True)
    session.close()
    _assert_one_thread(starts, callers)
    # One read folding the partitioned table's one heap, then the aggregate
    # handing it on: each was observed.
    assert reads == [engine._stored("facts").heap] and len(callers) >= 2
    scan = next(r for r in result.report.records if r.kind == "scan")
    assert scan.details["shards"] == 4
    assert result.report.observed_concurrency == pytest.approx(1.0)
    assert len(result.output("agg")) == 7


def test_mimic_one_shot_starts_no_thread(monkeypatch):
    data = generate_mimic(60, points_per_patient=8, seed=3)
    relational = RelationalEngine("clinical-db")
    timeseries = TimeseriesEngine("monitors")
    text = TextEngine("notes-db")
    load_mimic(data, relational=relational, timeseries=timeseries, text=text)
    system = build_accelerated_polystore(
        [relational, timeseries, text, MLEngine("dnn-engine")])
    with _spy(monkeypatch) as (starts, callers):
        result = system.execute(build_mimic_program(epochs=1), mode="polystore++")
    _assert_one_thread(starts, callers)
    kinds = {record.kind for record in result.report.records}
    assert {"ts_summarize", "keyword_features", "train"} <= kinds

