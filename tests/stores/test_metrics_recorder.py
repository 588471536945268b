"""``MetricsRecorder`` is a ring: a long-lived engine keeps its most recent
``METRICS_CAPACITY`` records, not one per native call since it started."""

from __future__ import annotations

from repro.datamodel import DataType, Table, make_schema
from repro.stores import RelationalEngine
from repro.stores.base import METRICS_CAPACITY, MetricsRecorder, OperationMetrics


def test_ten_times_the_capacity_in_calls_keeps_capacity_records():
    engine = RelationalEngine("db")
    engine.load_table("t", Table(make_schema(("a", DataType.INT)), [(1,), (2,)]))
    for _ in range(10 * METRICS_CAPACITY):
        engine.scan("t")
    assert len(engine.metrics) == METRICS_CAPACITY
    assert len(engine.metrics.records) == METRICS_CAPACITY
    # The newest records are the ones kept.
    engine.execute_sql("SELECT a FROM t")
    assert engine.metrics.records[-1].operation == "execute_sql"
    assert len(engine.metrics) == METRICS_CAPACITY


def test_execute_sql_records_calibrate_the_scan_cost():
    """``execute_sql`` leaves one record of its own, not one per inner scan."""
    engine = RelationalEngine("db")
    engine.load_table("t", Table(make_schema(("a", DataType.INT)), [(1,), (2,)]))
    engine.metrics.clear()
    engine.execute_sql("SELECT a FROM t")
    assert [r.operation for r in engine.metrics.records] == ["execute_sql"]


def test_reader_api_is_unchanged():
    recorder = MetricsRecorder()
    for i in range(METRICS_CAPACITY + 5):
        recorder.record(OperationMetrics("db", "scan" if i % 2 else "get", 1.0))
    records = recorder.records
    assert isinstance(records, list) and len(records) == len(recorder) == METRICS_CAPACITY
    assert recorder.total_time() == float(METRICS_CAPACITY)
    assert recorder.total_time("scan") + recorder.total_time("get") == recorder.total_time()
    recorder.clear()
    assert len(recorder) == 0 and recorder.records == [] and recorder.total_time() == 0
