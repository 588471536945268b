"""Serving-tier throughput under heavy in-process client concurrency.

Two checks:

* **mixed read/write fleet** — ``SERVING_BENCH_CLIENTS`` concurrent
  in-process clients (default 256; the acceptance floor) hammer one server:
  each client alternates validated point reads over a static table with
  aggregate counts over an events table that writer threads grow
  concurrently.  Every response is checked — point reads must return
  exactly the expected row, counts must be monotone per client and bounded
  by the rows actually written — so the benchmark fails on *any* incorrect
  result, not just on crashes.  Retryable rejects (``OVERLOADED`` /
  ``QUOTA_EXCEEDED``) are retried with the server's hint; a sampler thread
  asserts the admission queue never exceeds its configured bound.  Reports
  QPS and p50/p99 client latency through :mod:`benchmarks._emit`.
* **health** — the ``health`` op answers ``ok`` on a server fronting a
  durable partitioned deployment.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q
Smoke mode (CI):  SERVING_BENCH_REQUESTS=2 PYTHONPATH=src python -m pytest ...
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import DataflowProgram, SystemConfig, col
from repro.core import PolystorePlusPlus, build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.eide import Param
from repro.serve.client import ServeError
from repro.stores import RelationalEngine

from benchmarks._emit import emit

#: Concurrent in-process clients; the acceptance criterion floor is 256.
N_CLIENTS = int(os.environ.get("SERVING_BENCH_CLIENTS", "256"))
#: Requests each client issues (half point reads, half counts).
N_REQUESTS = int(os.environ.get("SERVING_BENCH_REQUESTS", "4"))
#: Server worker sessions (= admission slots).
POOL_SIZE = int(os.environ.get("SERVING_BENCH_POOL", "8"))
#: Global admission-queue bound; the sampler asserts it is never exceeded.
MAX_QUEUE = int(os.environ.get("SERVING_BENCH_QUEUE", "128"))
#: Writer threads growing the events table during the read storm.
N_WRITERS = 4

_PATIENTS = [(pid, 20 + (pid * 7) % 60, float(pid % 10) / 10.0)
             for pid in range(200)]


def _build_system():
    engine = RelationalEngine("servedb")
    engine.load_table("patients", Table(
        make_schema(("pid", DataType.INT), ("age", DataType.INT),
                    ("score", DataType.FLOAT)),
        _PATIENTS))
    engine.create_table("events", make_schema(
        ("event_id", DataType.INT), ("payload", DataType.FLOAT)))
    config = SystemConfig(obs_enabled=True, obs_trace_sample_rate=0.0,
                          session_workers=2)
    return build_cpu_polystore([engine], config=config), engine


def _point_read_program(system):
    expr = (system.dataset("servedb").table("patients")
            .filter(col("pid") == Param("pid", default=0)))
    program = DataflowProgram("point_read")
    program.output("row", expr)
    return program


def _count_events_program(system):
    expr = (system.dataset("servedb").table("events")
            .aggregate([], n=("count", None)))
    program = DataflowProgram("count_events")
    program.output("count", expr)
    return program


def _call_with_retries(client, program, params, tenant):
    """One client request with bounded backoff on retryable rejects."""
    for _ in range(60):
        try:
            return client.execute(program, params, tenant=tenant, timeout=120)
        except ServeError as exc:
            if not exc.retryable:
                raise
            time.sleep(min(exc.retry_after_s or 0.005, 0.1))
    raise AssertionError(f"{program} never admitted after 60 retries")


def test_mixed_fleet_sustains_concurrent_clients():
    system, engine = _build_system()
    errors: list[str] = []
    latencies: list[float] = []
    charged: list[float] = []
    latency_lock = threading.Lock()
    stop_writers = threading.Event()
    written = [0]
    written_lock = threading.Lock()

    with system.serve(pool_size=POOL_SIZE, max_queue=MAX_QUEUE,
                      max_queue_per_tenant=MAX_QUEUE) as server:
        server.register("point_read", _point_read_program(system))
        # Counts must see live writes and stay monotone per client, so they
        # are registered non-coalescable: a follower attached to an older
        # in-flight count could legitimately observe a smaller value.
        server.register("count_events", _count_events_program(system),
                        coalesce=False)

        def writer(writer_id: int) -> None:
            batch = 0
            while not stop_writers.is_set():
                base = writer_id * 1_000_000 + batch * 100
                rows = [(base + i, float(i)) for i in range(10)]
                with written_lock:
                    engine.insert("events", rows)
                    written[0] += len(rows)
                batch += 1
                time.sleep(0.002)

        def client_loop(client_id: int) -> None:
            client = server.connect()
            last_count = -1
            for step in range(N_REQUESTS):
                pid = (client_id * 31 + step) % len(_PATIENTS)
                start = time.perf_counter()
                try:
                    if step % 2 == 0:
                        response = _call_with_retries(
                            client, "point_read", {"pid": pid},
                            f"tenant-{client_id % 8}")
                        if response.get("charged_time_s") is not None:
                            with latency_lock:
                                charged.append(response["charged_time_s"])
                        rows = response["outputs"]["row"]["rows"]
                        expected = [list(_PATIENTS[pid])]
                        if rows != expected:
                            errors.append(
                                f"client {client_id}: point read {pid} "
                                f"returned {rows!r}, wanted {expected!r}")
                    else:
                        response = _call_with_retries(
                            client, "count_events", {},
                            f"tenant-{client_id % 8}")
                        [[count]] = response["outputs"]["count"]["rows"]
                        with written_lock:
                            ceiling = written[0]
                        if not (last_count <= count <= ceiling):
                            errors.append(
                                f"client {client_id}: count {count} outside "
                                f"[{last_count}, {ceiling}]")
                        last_count = count
                except Exception as exc:  # any unexpected failure is a result error
                    errors.append(f"client {client_id}: {type(exc).__name__}: {exc}")
                    return
                with latency_lock:
                    latencies.append(time.perf_counter() - start)

        max_queued = [0]

        def sampler() -> None:
            while not stop_writers.is_set():
                snapshot = server.stats()["admission"]
                max_queued[0] = max(max_queued[0], snapshot["queued"])
                assert snapshot["queued"] <= MAX_QUEUE, (
                    f"queue depth {snapshot['queued']} exceeds bound")
                time.sleep(0.01)

        writers = [threading.Thread(target=writer, args=(i,))
                   for i in range(N_WRITERS)]
        watcher = threading.Thread(target=sampler)
        clients = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(N_CLIENTS)]
        for thread in writers + [watcher]:
            thread.start()
        wall_start = time.perf_counter()
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=300)
        wall = time.perf_counter() - wall_start
        stop_writers.set()
        for thread in writers + [watcher]:
            thread.join(timeout=30)

        scrape = system.export_prometheus()

    assert not errors, "incorrect results:\n" + "\n".join(errors[:10])
    completed = len(latencies)
    assert completed == N_CLIENTS * N_REQUESTS
    assert "polystore_serve_requests_total" in scrape

    latencies.sort()
    p50 = latencies[completed // 2]
    p99 = latencies[min(completed - 1, int(0.99 * completed))]
    qps = completed / wall
    print(f"\nclients             : {N_CLIENTS} x {N_REQUESTS} requests")
    print(f"completed           : {completed} ok, 0 incorrect")
    print(f"wall                : {wall:.2f}s  ({qps:.0f} QPS)")
    print(f"latency p50 / p99   : {p50 * 1000:.1f} ms / {p99 * 1000:.1f} ms")
    print(f"rows written        : {written[0]}")
    print(f"max queue observed  : {max_queued[0]} (bound {MAX_QUEUE})")
    # Point reads run over a fixed 200-row table, so their charged time is
    # the regression series benchmarks/compare.py gates; counts over the
    # concurrently-growing events table are deliberately excluded.  The
    # *minimum* over the fleet is the estimator — scheduler/GIL contention
    # noise is strictly one-sided (same argument as the obs-overhead
    # estimator in bench_session_throughput.py).
    point_read_charged_s = min(charged) if charged else 0.0
    emit("serving", {
        "qps": qps,
        "p50_ms": p50 * 1000,
        "p99_ms": p99 * 1000,
        "completed": completed,
        "incorrect": 0,
        "rows_written": written[0],
        "max_queue_observed": max_queued[0],
        "point_read_charged_s": point_read_charged_s,
    }, {
        "clients": N_CLIENTS,
        "requests_per_client": N_REQUESTS,
        "pool_size": POOL_SIZE,
        "max_queue": MAX_QUEUE,
        "writers": N_WRITERS,
    })


def test_health_op_on_durable_partitioned_deployment(tmp_path):
    """A load balancer's probe path: the ``health`` op must answer ``ok``
    on a live server fronting a durable partitioned deployment — durability
    liveness, changelog pressure, queue saturation and view state all roll
    up through one protocol round-trip."""
    system = PolystorePlusPlus(SystemConfig(
        obs_enabled=True, durability_sync="always", session_workers=2))
    engine = system.register_engine(RelationalEngine("sharddb", partitions=4))
    engine.load_table("events", Table(
        make_schema(("row_id", DataType.INT), ("value", DataType.FLOAT)),
        [(i, float(i)) for i in range(64)]), shard_key="row_id")
    system.open(str(tmp_path))

    program = DataflowProgram("scan_events")
    program.output("out", system.dataset("sharddb").table("events"))

    with system.serve(pool_size=2) as server:
        server.register("scan_events", program)
        client = server.connect()
        client.execute("scan_events", tenant="probe")
        health = client.health()

    assert health["status"] == "ok", health
    checks = {c["name"]: c for c in health["checks"]}
    assert checks["durability"]["detail"]["alive"] is True
    assert checks["serve_queues"]["detail"]["servers"] == 1
    assert health["burning_slos"] == []
    print(f"\nhealth status       : {health['status']}")
    print(f"checks              : "
          f"{ {name: c['status'] for name, c in checks.items()} }")
    system.close()


if __name__ == "__main__":
    import tempfile

    test_mixed_fleet_sustains_concurrent_clients()
    with tempfile.TemporaryDirectory() as tmp:
        test_health_op_on_durable_partitioned_deployment(tmp)
