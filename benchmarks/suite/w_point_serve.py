"""``point_serve``: prepared point reads over TCP, engine work under a fifth.

A 200-row ``patients`` table behind ``system.serve()`` with one
``TcpClient``.  The engine's share of a request is small, so the serving
tier (framing, admission, loop trampoline, worker handoff), the session
(bind, plan-cache revalidation, aging check) and observability carry the
latency here — and carry almost none of it in ``scan_agg``.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

import floors
from harness import probe, require
from workload import (Workload, adapter_walk, executor_layer_metrics,
                      executor_run, plan_cache_hit_ratio)

from repro import DataflowProgram, SystemConfig, col
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.eide import Param
from repro.middleware.adapters import adapter_for
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.client import TcpClient
from repro.stores import RelationalEngine

ROWS = 200
AGES = 60
#: ``alt`` keeps pids >= lo; lo < 20 leaves 180 consecutive pids, which
#: cover every age residue, so the result always has AGES rows.
ALT_MAX_LO = 20
POOL_SIZE = 2
SESSION_WORKERS = 2

_SCHEMA = make_schema(("pid", DataType.INT), ("age", DataType.INT),
                      ("score", DataType.FLOAT))


def _age(pid: int) -> int:
    return 20 + (pid * 7) % AGES


def _score(draw: float) -> float:
    """A score that is a multiple of 0.25, so sums are exact in any order."""
    return round(draw * 100) / 4.0


def _point_read(system: Any, pid: Any) -> DataflowProgram:
    """``patients WHERE pid == pid``; ``pid`` a literal or a ``Param``."""
    program = DataflowProgram("point_read")
    program.output("row", system.dataset("servedb").table("patients")
                   .filter(col("pid") == pid))
    return program


def _deployment(rows: list[tuple], *, obs: bool) -> tuple[Any, Any, Any]:
    """(system, engine, started server) with both programs registered."""
    engine = RelationalEngine("servedb")
    engine.load_table("patients", Table(_SCHEMA, rows))
    system = build_cpu_polystore([engine], config=SystemConfig(
        obs_enabled=obs, session_workers=SESSION_WORKERS))
    patients = system.dataset("servedb").table("patients")
    point = _point_read(system, Param("pid", default=0))
    by_age = DataflowProgram("age_agg")
    by_age.output("agg", patients.filter(col("pid") >= Param("lo", default=0))
                  .aggregate(["age"], n=("count", None), total=("sum", "score")))
    server = system.serve(pool_size=POOL_SIZE)
    server.register("point_read", point)
    # Non-coalescable: every request must run, none may ride on another.
    server.register("age_agg", by_age, coalesce=False)
    return system, engine, server


class PointServe(Workload):
    name = "point_serve"
    cycle = ("hot",) * 8 + ("alt", "write")

    def setup(self, stage: Callable[[], None]) -> None:
        self.scores = [_score(self.data_rng.random()) for _ in range(ROWS)]
        rows = [(pid, _age(pid), self.scores[pid]) for pid in range(ROWS)]
        stage()
        self.system, self.engine, self.server = _deployment(rows, obs=True)
        self.client = TcpClient(*self.server.address)
        stage()

    # -- ops -----------------------------------------------------------------------------

    def args(self, cls: str, index: int) -> Any:
        if cls == "alt":
            return int(self.draw(index) * ALT_MAX_LO)
        pid = int(self.draw(index) * ROWS)
        return pid if cls == "hot" else (pid, _score(self.draw(index + 1)))

    def run(self, cls: str, args: Any) -> Any:
        if cls == "hot":
            return self.client.execute("point_read", {"pid": args})
        if cls == "alt":
            return self.client.execute("age_agg", {"lo": args})
        pid, score = args
        return self.engine.update_rows("patients", col("pid") == pid,
                                       {"score": score})

    def check(self, cls: str, args: Any, result: Any) -> bool:
        if cls == "hot":
            return (result["outputs"]["row"]["rows"]
                    == [[args, _age(args), self.scores[args]]])
        if cls == "alt":
            rows = result["outputs"]["agg"]["rows"]
            return (len(rows) == AGES
                    and sum(row[1] for row in rows) == ROWS - args
                    and sum(row[2] for row in rows) == sum(self.scores[args:]))
        pid, score = args
        old = (pid, _age(pid), self.scores[pid])
        self.scores[pid] = score
        return result == [(old, (pid, _age(pid), score))]

    def close(self) -> None:
        self.client.close()
        self.server.stop()

    # -- per-layer metrics (traced pass) -------------------------------------------------

    def layers(self, seconds: float, phase: dict[str, float]) -> dict[str, float]:
        span = self.span
        system, engine = self.system, self.engine
        rows = [(pid, _age(pid), self.scores[pid]) for pid in range(ROWS)]
        pid_column = np.arange(ROWS)
        inproc = self.server.connect()
        session = system.session(name="probe")
        program = _point_read(system, Param("pid", default=0))
        prepared = session.prepare(program)
        graph = system.compile(_point_read(system, 7), accelerated=False).graph
        adapters = {"servedb": adapter_for(engine)}
        # Twin deployment with observability off, same rows.
        _, _, twin_server = _deployment(rows, obs=False)
        twin = twin_server.connect()

        def executor_depth(_: int) -> Any:
            return executor_run(system, graph, SESSION_WORKERS)

        # Every depth answers "the row of pid 7"; assert it before timing.
        want = rows[7]
        answers = {
            "floor.python": floors.point_lookup(rows, 0, 7),
            "floor.numpy": floors.point_lookup_numpy(pid_column, rows, 7),
            "adapters": adapter_walk(graph, adapters).rows,
            "executor": executor_depth(0)[0]["row"].rows,
            "prepared": prepared.run(pid=7).output("row").rows,
            **{name: [tuple(row) for row in client.execute(
                "point_read", {"pid": 7})["outputs"]["row"]["rows"]]
               for name, client in (("tcp", self.client), ("inproc", inproc),
                                    ("obs_off", twin))},
        }
        for name, answer in answers.items():
            require(answer == [want], f"point depth {name} gave {answer!r}")

        request = {"op": "execute", "id": "t-1", "program": "point_read",
                   "params": {"pid": 7}}
        outputs = prepared.run(pid=7).outputs

        def protocol_round_trip(_: int) -> Any:
            protocol.decode_body(protocol.encode_frame(request)[
                protocol.FRAME_PREFIX_BYTES:])
            response = protocol.ok_response(
                "t-1", outputs=protocol.serialize_outputs(outputs),
                mode="polystore++", charged_time_s=0.0)
            return protocol.decode_body(protocol.encode_frame(response)[
                protocol.FRAME_PREFIX_BYTES:])

        admission = AdmissionController(slots=POOL_SIZE, max_queue=64,
                                        max_queue_per_tenant=32)

        def admit_release(_: int) -> Any:
            admission.try_admit("default", None)
            return admission.on_release()

        rounds = max(50, int(100 * seconds))
        try:
            with span("probe:point_onion"):
                depth = probe({
                    "serve.tcp": lambda i: self.client.execute(
                        "point_read", {"pid": 7}),
                    "serve.inproc": lambda i: inproc.execute(
                        "point_read", {"pid": 7}),
                    "serve.inproc.obs_off": lambda i: twin.execute(
                        "point_read", {"pid": 7}),
                    "client.prepared_run": lambda i: prepared.run(pid=7),
                    "middleware.executor": executor_depth,
                    "middleware.adapters": lambda i: adapter_walk(graph, adapters),
                    "stores.relational.scan": lambda i: engine.scan("patients"),
                    "floor.python": lambda i: floors.point_lookup(rows, 0, 7),
                    "floor.numpy": lambda i: floors.point_lookup_numpy(
                        pid_column, rows, 7),
                    "serve.protocol": protocol_round_trip,
                    "serve.admission": admit_release,
                    "client.prepare_hit": lambda i: session.prepare(program),
                }, rounds, span)
        finally:
            twin_server.stop()
        t0 = time.perf_counter()
        result = prepared.run(pid=7)
        run_s = time.perf_counter() - t0
        us = 1e6
        out = executor_layer_metrics(run_s, result.report)
        out.update({
            "serve.tcp_self_us": (depth["serve.tcp"] - depth["serve.inproc"]) * us,
            "serve.inproc_self_us":
                (depth["serve.inproc"] - depth["client.prepared_run"]) * us,
            "serve.protocol_us": depth["serve.protocol"] * us,
            "serve.admission_us": depth["serve.admission"] * us,
            "client.session_self_us":
                (depth["client.prepared_run"] - depth["middleware.executor"]) * us,
            "client.prepare_hit_us": depth["client.prepare_hit"] * us,
            "client.plan_cache_hit_ratio": plan_cache_hit_ratio(session),
            "client.pinned_frac":
                result.report.cached_tasks / len(result.report.records),
            "obs.overhead_frac":
                depth["serve.inproc"] / depth["serve.inproc.obs_off"] - 1.0,
            "middleware.executor_self_us":
                (depth["middleware.executor"] - depth["middleware.adapters"]) * us,
            "middleware.adapters_self_ms":
                (depth["middleware.adapters"]
                 - depth["stores.relational.scan"]) * 1e3,
            "middleware.adapters.predicate_rows_per_s":
                ROWS / (depth["middleware.adapters"]
                        - depth["stores.relational.scan"]),
            "stores.relational.scan_rows_per_s":
                ROWS / depth["stores.relational.scan"],
            "stores.relational.rows_examined_per_result": float(
                ROWS if not graph.nodes_of_kind("index_seek") else 1),
            "floor.point_us": depth["floor.python"] * us,
            "floor.point_numpy_us": depth["floor.numpy"] * us,
            "point.x_floor": depth["serve.tcp"] / depth["floor.python"],
            "stores.relational.update_rows_ms": phase["write_fast_ms"],
        })
        return out
