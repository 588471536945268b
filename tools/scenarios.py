"""Two end-to-end paths no suite workload or example drives.

    PYTHONPATH=src python3 tools/scenarios.py serve   # every protocol op over TCP
    PYTHONPATH=src python3 tools/scenarios.py crash   # durable writes, a kill, a reopen

``serve`` starts a server on a loopback port and sends ``execute``,
``cancel`` (of a request still running), ``metrics``, ``programs``,
``stats``, ``ping`` and ``health`` through a :class:`TcpClient`.  ``crash``
runs three legs, each killed at the ``wal.append`` fault point and reopened:
a durable relational engine, whose recovered table must be the one written
before the kill; the same with pages of eight rows and a deferred view,
trimmed of whole sealed pages before any checkpoint, whose recovered rows
must be those before the kill and on which a new view must equal its
recompute; and a durable table in two partitions, loaded and written once
more, whose recovered rows (in order) and ``data_version_for`` must equal
their values before the kill.  Each exits
non-zero if an answer is wrong; ``tools/unreached.py`` runs both under call
tracing.
"""

from __future__ import annotations

import sys
import tempfile
import threading
import time

from repro import DataflowProgram, Param, PolystorePlusPlus, SystemConfig, col
from repro.compiler.pipeline import CompilerOptions
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.durability import InjectedFault, faults
from repro.serve.client import ServeError, TcpClient
from repro.stores import RelationalEngine
from repro.stores.changelog import table_scope

SCHEMA = make_schema(("pid", DataType.INT), ("age", DataType.INT))
ROWS = [(pid, 20 + pid % 60) for pid in range(200)]


def _program(system, name, source):
    program = DataflowProgram(name)
    program.output("result", source(system.dataset("db").table("patients")))
    return program


def serve() -> None:
    engine = RelationalEngine("db")
    engine.load_table("patients", Table(SCHEMA, ROWS))
    system = build_cpu_polystore([engine], config=SystemConfig(obs_enabled=True))

    def slow(table):
        time.sleep(0.5)
        return table

    with system.serve(pool_size=2) as server:
        server.register("over", _program(
            system, "over", lambda d: d.filter(col("age") > Param("min_age", default=0))))
        # The trailing filter is the cancellation checkpoint after the UDF.
        server.register("slow", _program(
            system, "slow", lambda d: d.apply(slow).filter(col("age") >= 0)))
        with TcpClient(*server.address) as tcp:
            assert tcp.ping(timeout=30)
            rows = tcp.execute("over", {"min_age": 70}, timeout=30)["outputs"]["result"]["rows"]
            assert sorted(map(tuple, rows)) == [row for row in ROWS if row[1] > 70]
            codes: list[str] = []

            def run_slow() -> None:
                try:
                    tcp.execute("slow", request_id="slow-1", timeout=30)
                except ServeError as exc:
                    codes.append(exc.code)

            worker = threading.Thread(target=run_slow)
            worker.start()
            time.sleep(0.1)
            assert tcp.cancel("slow-1", timeout=30)
            worker.join(30)
            assert codes == ["CANCELLED"]
            assert sorted(tcp.programs(timeout=30)) == ["over", "slow"]
            assert "polystore_serve_requests_total" in tcp.metrics(timeout=30)
            assert tcp.stats(timeout=30)
            assert tcp.health(timeout=30)["status"] in ("ok", "warn", "fail")
    system.close()


def _kill_next_wal_append(system, write) -> None:
    """Run ``write`` with the ``wal.append`` fault point armed, then let the
    dead system go (its files are closed; nothing more reaches the disk)."""
    faults.arm("wal.append")
    try:
        write()
        raise AssertionError("the armed fault point did not fire")
    except InjectedFault:
        pass
    system.close()


def crash() -> None:
    with tempfile.TemporaryDirectory(prefix="scenario-crash-") as data_dir:
        system = PolystorePlusPlus(SystemConfig(
            data_dir=data_dir, durability_sync="always", durability_snapshot_every=8))
        db = system.register_engine(RelationalEngine("db"))
        db.create_table("patients", SCHEMA)
        for start in range(0, len(ROWS), 10):
            db.insert("patients", ROWS[start:start + 10])
        db.update_rows("patients", col("pid") == 7, {"age": 99})
        db.delete_rows("patients", col("pid") < 5)
        expected = sorted(db.snapshot_scan("patients")[0].rows)
        _kill_next_wal_append(system, lambda: db.insert("patients", [(999, 1)]))

        reborn = PolystorePlusPlus(data_dir=data_dir)
        reborn.register_engine(RelationalEngine("db"))
        recovered = reborn.execute(_program(reborn, "all", lambda d: d)).output("result")
        assert sorted(recovered.rows) == expected
        reborn.close()
    trim_crash()
    partitioned_crash()


def trim_crash() -> None:
    """Whole sealed pages trimmed under a view replay from the WAL alone."""
    with tempfile.TemporaryDirectory(prefix="scenario-crash-trim-") as data_dir:
        system = PolystorePlusPlus(SystemConfig(
            data_dir=data_dir, durability_sync="always", durability_snapshot_every=1_000))
        db = system.register_engine(RelationalEngine("db"))
        db.create_table("patients", SCHEMA, page_capacity=8)
        db.insert("patients", ROWS)
        older = lambda d: d.filter(col("age") > 30).aggregate(  # noqa: E731
            ["age"], n=("count", None), total=("sum", "pid"))
        view = system.create_view("older", older(system.dataset("db").table("patients")),
                                  policy="deferred")
        view.read()
        assert len(db.delete_rows("patients", col("pid") < 100)) == 100  # 12 whole pages
        expected = db.snapshot_scan("patients")[0].rows
        assert view.refresh().kind == "incremental"
        _kill_next_wal_append(system, lambda: db.insert("patients", [(999, 1)]))

        reborn = PolystorePlusPlus(SystemConfig(data_dir=data_dir))
        db = reborn.register_engine(RelationalEngine("db"))
        assert reborn.durability.recovery_report()["db"]["replayed_batches"] == 3
        assert db.snapshot_scan("patients")[0].rows == expected
        reborn.drop_view("older")  # restored from disk; made again below
        expr = older(reborn.dataset("db").table("patients"))
        view = reborn.create_view("older", expr, policy="deferred")
        recomputed = reborn.execute(_program(reborn, "recompute", older),
                                    options=CompilerOptions(use_views=False)).output("result")
        assert sorted(view.read()[0].rows) == sorted(recomputed.rows)
        reborn.close()


def partitioned_crash() -> None:
    """Writes to a partitioned table replay from the one WAL exactly."""
    scope = table_scope("patients")
    with tempfile.TemporaryDirectory(prefix="scenario-crash-partitioned-") as data_dir:
        # No checkpoint after attach: recovery replays every write below.
        system = PolystorePlusPlus(SystemConfig(
            data_dir=data_dir, durability_sync="always", durability_snapshot_every=64))
        db = system.register_engine(RelationalEngine("db", partitions=2))
        db.load_table("patients", Table(SCHEMA, ROWS[:100]), shard_key="pid")
        db.insert("patients", ROWS[100:150])
        expected = (db.scan("patients").rows, db.data_version_for(scope))
        _kill_next_wal_append(system, lambda: db.insert("patients", [(999, 1)]))

        reborn = PolystorePlusPlus(data_dir=data_dir)
        db = reborn.register_engine(RelationalEngine("db", partitions=2))
        recovered = reborn.execute(_program(reborn, "all", lambda d: d)).output("result")
        assert (recovered.rows, db.data_version_for(scope)) == expected
        reborn.close()


if __name__ == "__main__":
    {"serve": serve, "crash": crash}[sys.argv[1]]()
