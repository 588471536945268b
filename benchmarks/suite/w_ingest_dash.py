"""``ingest_dash``: durable ingest beside a dashboard on a materialized view.

A durable deployment (WAL + checkpoints) holds an ``orders`` table, a
deferred materialized view over it and a prepared dashboard.  Writes go
through the changelog and the WAL; dashboard polls read the view, which
refreshes incrementally from the delta; once per cycle the same dashboard
recomputes from the base table and must give the view's answer.  After the
timed phase the system is closed and reopened from its data directory.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import deque
from typing import Any, Callable

from harness import probe
from workload import Workload, executor_layer_metrics, record_wall_ms

from repro import PolystorePlusPlus, col
from repro.compiler.pipeline import CompilerOptions
from repro.core.system import SystemConfig
from repro.datamodel import DataType, Table, make_schema
from repro.eide.dataflow import DataflowProgram, Dataset
from repro.stores import RelationalEngine
from repro.stores.changelog import ChangeLog, table_scope

ROWS = 100_000
BATCH = 50
#: Writes per cycle; the last one also trims the oldest TRIM rows, so the
#: table size is the same at the start of every cycle.
WRITES = 100
TRIM = WRITES * BATCH
REGIONS = ("north", "south", "east", "west", "centre")
THRESHOLD = 1.0
#: The flush policy, identical on both sides of any comparison.
DURABILITY = {"durability_sync": "interval", "durability_sync_interval_s": 0.05,
              "durability_snapshot_every": 128}
SESSION_WORKERS = 2
#: Bytes of user data per order row: int id + region text + float amount.
_USER_BYTES = {region: 8 + len(region) + 8 for region in REGIONS}

_SCHEMA = make_schema(("order_id", DataType.INT), ("region", DataType.STRING),
                      ("amount", DataType.FLOAT))


def _spend(system: Any) -> Any:
    return (system.dataset("salesdb").table("orders")
            .filter(col("amount") > THRESHOLD)
            .aggregate(["region"], total=("sum", "amount"), n=("count", None)))


class IngestDash(Workload):
    name = "ingest_dash"
    # write, poll, write, poll, ... and the cycle's last poll recomputes.
    cycle = ("write", "hot") * (WRITES - 1) + ("write", "alt")

    def setup(self, stage: Callable[[], None]) -> None:
        self.n = self.scaled(ROWS, 2 * TRIM)
        self.data_dir = os.path.join(self.workdir, "data")
        #: The oracle's model: live rows oldest-first, and the dashboard's
        #: answer {region: (n, total)} over them.  Amounts are integer-valued
        #: floats, so sums are exact in any order.
        self.live: deque[tuple[str, float]] = deque()
        self.model = {region: [0, 0.0] for region in REGIONS}
        self.next_id = 0
        rows = self._new_rows(self.n, self.data_rng.random)
        self._model_insert(rows)
        stage()
        self.system = PolystorePlusPlus(SystemConfig(
            data_dir=self.data_dir, obs_enabled=True,
            session_workers=SESSION_WORKERS, **DURABILITY))
        self.engine = self.system.register_engine(RelationalEngine("salesdb"))
        self.engine.load_table("orders", Table(_SCHEMA, rows))
        stage()
        expr = _spend(self.system)
        self.view = self.system.create_view("spend", expr, policy="deferred")
        stage()
        self.session = self.system.session(name="dash")
        dashboard = DataflowProgram("dashboard")
        dashboard.output("spend", Dataset(expr.node))
        self.dashboard = self.session.prepare(dashboard)
        recompute = DataflowProgram("dashboard_recompute")
        recompute.output("spend", Dataset(expr.node))
        self.recompute = self.session.prepare(
            recompute, options=CompilerOptions(use_views=False))
        self.writes = 0
        stage()

    def _new_rows(self, count: int, uniform: Callable[[], float]) -> list[tuple]:
        """``count`` fresh order rows with the next ids (not yet in the model)."""
        rows = []
        for j in range(count):
            u = uniform()
            rows.append((self.next_id + j, REGIONS[int(u * 5)],
                         float(int(u * 9973) % 97)))
        return rows

    def _model_insert(self, rows: list[tuple]) -> None:
        self.next_id += len(rows)
        for _, region, amount in rows:
            self.live.append((region, amount))
            if amount > THRESHOLD:
                slot = self.model[region]
                slot[0] += 1
                slot[1] += amount

    def _model_trim(self) -> None:
        for _ in range(TRIM):
            region, amount = self.live.popleft()
            if amount > THRESHOLD:
                slot = self.model[region]
                slot[0] -= 1
                slot[1] -= amount

    # -- ops -----------------------------------------------------------------------------

    def args(self, cls: str, index: int) -> Any:
        if cls != "write":
            return None
        draws = iter(self.draw(index * 7 + j) for j in range(BATCH))
        rows = self._new_rows(BATCH, draws.__next__)
        # The cycle's last write also trims the oldest TRIM rows.
        trim = self.writes % WRITES == WRITES - 1
        cutoff = self.next_id - len(self.live) + TRIM if trim else None
        return rows, cutoff

    def run(self, cls: str, args: Any) -> Any:
        if cls == "hot":
            return self.dashboard.run()
        if cls == "alt":
            return self.recompute.run(refresh=True)
        rows, cutoff = args
        with self.span("stores.relational.insert"):
            inserted = self.engine.insert("orders", rows)
        if cutoff is None:
            return inserted, None
        with self.span("stores.relational.delete_rows"):
            return inserted, self.engine.delete_rows(
                "orders", col("order_id") < cutoff)

    def check(self, cls: str, args: Any, result: Any) -> bool:
        if cls != "write":
            got = {row["region"]: [row["n"], row["total"]]
                   for row in result.output("spend").to_dicts()}
            return got == {r: v for r, v in self.model.items() if v[0]}
        rows, cutoff = args
        inserted, deleted = result
        self.writes += 1
        self._model_insert(rows)
        if cutoff is None:
            return inserted == BATCH
        self._model_trim()
        return inserted == BATCH and len(deleted) == TRIM

    def finish(self) -> list[bool]:
        """Clean shutdown, then recovery from the data directory alone."""
        self.session.close()
        self.system.close()
        self.system = None
        t0 = time.perf_counter()
        reborn = PolystorePlusPlus(SystemConfig(data_dir=self.data_dir,
                                                **DURABILITY))
        engine = reborn.register_engine(RelationalEngine("salesdb"))
        self.finish_metrics["durability.recovery_s"] = time.perf_counter() - t0
        try:
            rows = engine.snapshot_scan("orders")[0].rows
            ids_ok = (len(rows) == len(self.live)
                      and rows[0][0] == self.next_id - len(self.live)
                      and rows[-1][0] == self.next_id - 1)
            restored = reborn.durability.recovery_report()["salesdb"]["restored"]
        finally:
            reborn.close()
        return [ids_ok, bool(restored)]

    def close(self) -> None:
        if self.system is not None:
            self.session.close()
            self.system.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- per-layer metrics (traced pass) -------------------------------------------------

    def _obs(self) -> dict[str, float]:
        """Counters this workload reads from the public metrics registry."""
        snapshot = self.system.obs.registry.snapshot()

        def series(name: str) -> dict[str, Any]:
            found = snapshot[name]["series"]
            return found[0] if found else {"value": 0.0, "sum": 0.0, "count": 0}

        return {
            "checkpoints": series("polystore_checkpoints_total")["value"],
            "snapshot_s": series("polystore_snapshot_seconds")["sum"],
            "snapshots": series("polystore_snapshot_seconds")["count"],
        }

    def begin_trace(self) -> None:
        """Remember the counters the traced phase's deltas start from."""
        self.before = {**self._obs(), **self.view.describe()}
        self.rows_before = self.next_id

    def layers(self, seconds: float, phase: dict[str, float]) -> dict[str, float]:
        span = self.span
        after = {**self._obs(), **self.view.describe()}
        before = self.before
        # Every write's delta is its batch; a trim adds TRIM deleted rows.
        trims = len(self.spans.durations_s("stores.relational.delete_rows"))
        delta_rows = (self.next_id - self.rows_before) + trims * TRIM
        snapshots = after["snapshots"] - before["snapshots"]
        t0 = time.perf_counter()
        recomputed = self.recompute.run(refresh=True)
        run_s = time.perf_counter() - t0

        # Durable insert vs the same insert on an in-memory twin, and the
        # WAL bytes one batch adds (segment growth with no checkpoint between).
        twin = PolystorePlusPlus(SystemConfig(session_workers=SESSION_WORKERS))
        twin_engine = twin.register_engine(RelationalEngine("salesdb"))
        twin_engine.create_table("orders", _SCHEMA)
        log = ChangeLog()
        entries = [(row, 1) for row in self._new_rows(BATCH, self.data_rng.random)]

        def fresh_batch(_: int = 0) -> list[tuple]:
            return self._new_rows(BATCH, self.data_rng.random)

        def durable_insert(_: int = 0) -> list[tuple]:
            rows = fresh_batch()
            self.engine.insert("orders", rows)
            self._model_insert(rows)
            return rows

        def wal_size() -> tuple[int, int]:
            state = self.system.durability.describe()["checkpoints"]["salesdb"]
            path = os.path.join(self.data_dir, "engines", "salesdb",
                                f"wal-{state['wal_segment']:08d}.log")
            return state["wal_segment"], os.path.getsize(path)

        wal_bytes = user_bytes = 0
        while not wal_bytes:  # retry when a checkpoint rotated the segment
            segment, size = wal_size()
            batch = durable_insert()
            segment_after, size_after = wal_size()
            if segment_after == segment:
                wal_bytes = size_after - size
                user_bytes = sum(_USER_BYTES[region] for _, region, _ in batch)

        rounds = max(20, int(20 * seconds))
        with span("probe:durable_insert"):
            depth = probe({
                "durable.insert": durable_insert,
                "memory.insert": lambda i: twin_engine.insert(
                    "orders", fresh_batch()),
                "batch.build": fresh_batch,
                "stores.changelog.append": lambda i: log.append(
                    table_scope("orders"), entries),
            }, rounds, span)
        self.dashboard.run()  # fold the probe inserts into the view
        out = executor_layer_metrics(run_s, recomputed.report)
        scan_ms = record_wall_ms(recomputed.report, "scan")
        out.update({
            "views.refresh_us_per_delta_row":
                (after["total_refresh_charged_s"]
                 - before["total_refresh_charged_s"]) / max(delta_rows, 1) * 1e6,
            "views.incremental_refreshes": float(
                after["incremental_refreshes"] - before["incremental_refreshes"]),
            "views.full_recomputes": float(
                after["full_recomputes"] - before["full_recomputes"]),
            "views.speedup_x": phase["alt_fast_ms"] / phase["hot_fast_ms"],
            "stores.changelog.append_us":
                depth["stores.changelog.append"] * 1e6,
            "durability.wal_append_us":
                (depth["durable.insert"] - depth["memory.insert"]) * 1e6,
            "durability.wal_bytes_per_user_byte": wal_bytes / user_bytes,
            "durability.checkpoints":
                float(after["checkpoints"] - before["checkpoints"]),
            "durability.checkpoint_ms":
                (after["snapshot_s"] - before["snapshot_s"])
                / max(snapshots, 1) * 1e3,
            "durability.stall_max_ms": phase["harness.write_max_ms.raw"],
            "stores.relational.insert_rows_per_s":
                BATCH / (depth["memory.insert"] - depth["batch.build"]),
            "stores.relational.delete_rows_ms":
                self.span_fast_ms("stores.relational.delete_rows"),
            # The scan record is the adapter's leaf read: scan + pushed predicate.
            "middleware.adapters.predicate_rows_per_s":
                len(self.live) / (scan_ms / 1e3),
            "stores.relational.aggregate_ms":
                record_wall_ms(recomputed.report, "aggregate"),
            "stores.relational.rows_examined_per_result":
                len(self.live) / len(REGIONS),
        })
        return out
