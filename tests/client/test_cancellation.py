"""Deadlines and cooperative cancellation on the session API."""

from __future__ import annotations

import time

import pytest

from repro import CancellationToken, DataflowProgram, SystemConfig, col
from repro.cancellation import CancellationToken as _DirectToken
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import CancelledError, DeadlineExceededError
from repro.stores import RelationalEngine


class TestCancellationToken:
    def test_reexported_from_package_root(self):
        assert CancellationToken is _DirectToken

    def test_explicit_cancel_wins_over_deadline(self):
        token = CancellationToken(deadline_s=0.0)
        token.cancel("user said stop")
        with pytest.raises(CancelledError) as excinfo:
            token.check()
        assert not isinstance(excinfo.value, DeadlineExceededError)
        assert "user said stop" in str(excinfo.value)

    def test_cancel_is_idempotent_first_reason_wins(self):
        token = CancellationToken()
        token.cancel("first")
        token.cancel("second")
        assert token.reason == "first"

    def test_deadline_expiry_raises_deadline_exceeded(self):
        clock = [0.0]
        token = CancellationToken(deadline_s=1.0, clock=lambda: clock[0])
        token.check()
        assert token.remaining_s() == pytest.approx(1.0)
        clock[0] = 2.0
        assert token.expired()
        with pytest.raises(DeadlineExceededError):
            token.check()

    def test_add_deadline_only_tightens(self):
        clock = [0.0]
        token = CancellationToken(deadline_s=5.0, clock=lambda: clock[0])
        token.add_deadline(1.0)
        assert token.remaining_s() == pytest.approx(1.0)
        token.add_deadline(10.0)  # looser: ignored
        assert token.remaining_s() == pytest.approx(1.0)

    def test_deadline_exceeded_is_a_cancelled_error(self):
        # Callers that catch CancelledError handle both shapes.
        assert issubclass(DeadlineExceededError, CancelledError)


def _build_system(*, partitions: int = 1):
    schema = make_schema(("row_id", DataType.INT), ("value", DataType.FLOAT))
    rows = [(i, float(i % 5)) for i in range(40)]
    engine = RelationalEngine("plaindb", partitions=partitions)
    engine.load_table("events", Table(schema, rows), shard_key="row_id")
    return build_cpu_polystore([engine], config=SystemConfig(
        obs_enabled=True, obs_trace_sample_rate=1.0))


def _program(system, source, udf=None, name="cancel-prog"):
    expr = system.dataset(source).table("events")
    if udf is not None:
        expr = expr.apply(udf)
    expr = expr.filter(col("value") >= 0.0)
    program = DataflowProgram(name)
    program.output("out", expr)
    return program


class TestSessionDeadlines:
    def test_execute_deadline_stops_a_slow_run(self):
        system = _build_system()

        def slow(table):
            time.sleep(0.2)
            return table

        with pytest.raises(DeadlineExceededError):
            system.default_session().execute(
                _program(system, "plaindb", udf=slow), deadline_s=0.05)

    def test_prepared_run_honors_deadline(self):
        system = _build_system()

        def slow(table):
            time.sleep(0.2)
            return table

        prepared = system.session(name="t").prepare(
            _program(system, "plaindb", udf=slow))
        with pytest.raises(DeadlineExceededError):
            prepared.run(deadline_s=0.05)
        # The handle stays usable: a run without a deadline completes.
        assert prepared.run().output("out").num_rows == 40

    def test_precancelled_token_fails_fast_without_running(self):
        system = _build_system()
        calls = []

        def udf(table):
            calls.append(1)
            return table

        prepared = system.session(name="t").prepare(
            _program(system, "plaindb", udf=udf))
        token = CancellationToken()
        token.cancel("never mind")
        with pytest.raises(CancelledError):
            prepared.run(cancellation=token)
        assert calls == []

    def test_deadline_and_token_compose(self):
        system = _build_system()
        token = CancellationToken()
        prepared = system.session(name="t").prepare(
            _program(system, "plaindb"))
        # A generous deadline with a live token: runs fine.
        result = prepared.run(deadline_s=30.0, cancellation=token)
        assert result.output("out").num_rows == 40


class TestPartitionedReadCancellation:
    def test_a_cancelled_partitioned_read_reads_no_heap_page(self, monkeypatch):
        """A partitioned table is one heap: a token cancelled before the read
        stops the run before any of its pages is read; uncancelled, the one
        read covers every row."""
        from repro.stores.relational.storage import HeapStorage

        system = _build_system(partitions=4)
        prepared = system.session(name="t").prepare(_program(system, "plaindb"))
        heap_reads = []
        for name in ("select", "candidates"):
            method = getattr(HeapStorage, name)
            monkeypatch.setattr(HeapStorage, name, lambda heap, *args, _m=method, **kw:
                                heap_reads.append(heap) or _m(heap, *args, **kw))
        assert prepared.run(refresh=True).output("out").num_rows == 40
        assert heap_reads
        heap_reads.clear()
        token = CancellationToken()
        token.cancel("before the read")
        with pytest.raises(CancelledError):
            prepared.run(refresh=True, cancellation=token)
        assert heap_reads == []
