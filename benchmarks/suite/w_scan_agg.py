"""``scan_agg``: filter + group-aggregate over a big table, no serving tier.

One ``facts`` table loaded twice: in a single ``RelationalEngine`` and in a
4-shard ``ShardedEngine``.  An in-process prepared session runs the same
program against each with ``refresh=True`` (pins bypassed), so adapters
(``apply_predicate``), the relational operators and the table <-> dict round
trips are nearly all of the time; the write shows whether a read-side
representation change taxes updates.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import floors
from harness import probe, require
from workload import (Workload, adapter_walk, executor_layer_metrics,
                      executor_run, plan_cache_hit_ratio)

from repro import DataflowProgram, SystemConfig, col
from repro.cluster import HashPartitioner
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.middleware.adapters import adapter_for
from repro.stores import RelationalEngine
from repro.stores.relational.operators import GroupByAggregate, TableScan

#: Rows at ``--scale 1.0``.  (ISSUE 13 asked for 200k; at 200k one mix cycle
#: takes ~3 s here and a 15 s run would hold 5 samples per class.)
ROWS = 50_000
GROUPS = 97
SHARDS = 4
THRESHOLD = 100.0
#: Ids one write touches (a contiguous range; size-preserving update).
WRITE_SPAN = 100
SESSION_WORKERS = 2

_SCHEMA = make_schema(("id", DataType.INT), ("grp", DataType.INT),
                      ("amount", DataType.FLOAT), ("flag", DataType.INT))


class ScanAgg(Workload):
    name = "scan_agg"
    cycle = ("hot", "hot", "alt", "write")

    def setup(self, stage: Callable[[], None]) -> None:
        rng = self.data_rng
        self.n = self.scaled(ROWS, 2_000)
        # Integer-valued floats: group sums are exact in any summation order,
        # so single-engine, sharded and floor answers compare with ``==``.
        self.rows = [(i, rng.randrange(GROUPS), float(rng.randrange(1000)), 0)
                     for i in range(self.n)]
        stage()
        self.system = build_cpu_polystore([], config=SystemConfig(
            session_workers=SESSION_WORKERS))
        self.single = self.system.register_engine(RelationalEngine("facts1"))
        self.single.load_table("facts", Table(_SCHEMA, self.rows))
        stage()
        self.sharded = self.system.register_sharded_engine(
            "facts4", RelationalEngine, partitioner=HashPartitioner(SHARDS))
        self.sharded.load_table("facts", Table(_SCHEMA, self.rows),
                                shard_key="id")
        stage()
        self.session = self.system.session(name="scan")
        self.on_single = self.session.prepare(self._program("facts1"))
        self.on_sharded = self.session.prepare(self._program("facts4"))
        #: The oracle's model: {group: (n, total)} of rows over THRESHOLD.
        self.model = floors.filter_group_sum(self.rows, 1, 2, THRESHOLD)
        stage()

    def _program(self, engine: str) -> DataflowProgram:
        program = DataflowProgram(f"scan_agg_{engine}")
        program.output("agg", self.system.dataset(engine).table("facts")
                       .filter(col("amount") > THRESHOLD)
                       .aggregate(["grp"], n=("count", None),
                                  total=("sum", "amount")))
        return program

    # -- ops -----------------------------------------------------------------------------

    def args(self, cls: str, index: int) -> Any:
        if cls != "write":
            return None
        low = int(self.draw(index) * (self.n - WRITE_SPAN))
        return low, float(int(self.draw(index + 1) * 1000))

    def run(self, cls: str, args: Any) -> Any:
        if cls == "hot":
            return self.on_single.run(refresh=True)
        if cls == "alt":
            return self.on_sharded.run(refresh=True)
        low, amount = args
        in_range = (col("id") >= low) & (col("id") < low + WRITE_SPAN)
        with self.span("stores.relational.update_rows"):
            first = self.single.update_rows("facts", in_range, {"amount": amount})
        with self.span("cluster.update_rows"):
            second = self.sharded.update_rows("facts", in_range, {"amount": amount})
        return first, second

    def check(self, cls: str, args: Any, result: Any) -> bool:
        if cls != "write":
            return floors.table_group_sum(result.output("agg").to_dicts(),
                                          "grp", "n", "total") == self.model
        low, amount = args
        model = self.model
        for i in range(low, low + WRITE_SPAN):
            row_id, group, old, flag = self.rows[i]
            if old > THRESHOLD:
                n, total = model[group]
                model[group] = (n - 1, total - old)
            if amount > THRESHOLD:
                n, total = model.get(group, (0, 0.0))
                model[group] = (n + 1, total + amount)
            self.rows[i] = (row_id, group, amount, flag)
        for group in [g for g, (n, _) in model.items() if n == 0]:
            del model[group]
        return all(len(updated) == WRITE_SPAN for updated in result)

    def close(self) -> None:
        self.session.close()

    # -- per-layer metrics (traced pass) -------------------------------------------------

    def layers(self, seconds: float, phase: dict[str, float]) -> dict[str, float]:
        span = self.span
        system, single, rows, n = self.system, self.single, self.rows, self.n
        graph = self.on_single.compilation.graph
        adapters = {"facts1": adapter_for(single)}
        aggregate_node = graph.nodes_of_kind("aggregate")[0]
        table = single.scan("facts")
        filtered = [row for row in table.to_dicts() if row["amount"] > THRESHOLD]

        def executor_depth(_: int) -> Any:
            return executor_run(system, graph, SESSION_WORKERS)

        def aggregate_operator(_: int) -> Any:
            return GroupByAggregate(
                TableScan(filtered), list(aggregate_node.params["group_by"]),
                list(aggregate_node.params["aggregates"])).execute()

        def as_model(value: Any) -> dict:
            return floors.table_group_sum(value.to_dicts(), "grp", "n", "total")

        answers = {
            "floor.python": floors.filter_group_sum(rows, 1, 2, THRESHOLD),
            "floor.numpy": floors.filter_group_sum_numpy(rows, 1, 2, THRESHOLD),
            "adapters": as_model(adapter_walk(graph, adapters)),
            "executor": as_model(executor_depth(0)[0]["agg"]),
            "aggregate operator": floors.table_group_sum(
                aggregate_operator(0), "grp", "n", "total"),
        }
        for name, answer in answers.items():
            require(answer == self.model, f"scan depth {name} disagrees")

        rounds = max(3, int(seconds))
        with span("probe:scan_onion"):
            depth = probe({
                "client.prepared_run": lambda i: self.on_single.run(refresh=True),
                "middleware.executor": executor_depth,
                "middleware.adapters": lambda i: adapter_walk(graph, adapters),
                "stores.relational.scan": lambda i: single.scan("facts"),
                "stores.relational.aggregate": aggregate_operator,
                "datamodel.dict_roundtrip":
                    lambda i: Table.from_dicts(table.to_dicts()),
                "floor.python":
                    lambda i: floors.filter_group_sum(rows, 1, 2, THRESHOLD),
                "floor.numpy":
                    lambda i: floors.filter_group_sum_numpy(rows, 1, 2, THRESHOLD),
            }, rounds, span)

        t0 = time.perf_counter()
        result = self.on_single.run(refresh=True)
        run_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        scattered = self.on_sharded.run(refresh=True)
        scatter_s = time.perf_counter() - t0
        shard_cpu_s = gather_s = 0.0
        for record in scattered.report.records:
            times = record.details.get("shard_times_s") or [0.0]
            shard_cpu_s += sum(times)
            # Charged time is the critical path: slowest shard + the merge.
            gather_s += record.charged_time_s - max(times)
        scan_record = next(r for r in scattered.report.records
                           if r.kind == "scan")
        ms = 1e3
        adapters_self_s = (depth["middleware.adapters"]
                           - depth["stores.relational.scan"]
                           - depth["stores.relational.aggregate"])
        # Session and executor self times come from one run's own report
        # here: as differences of two ~200 ms probes they would be noise.
        out = executor_layer_metrics(run_s, result.report)
        out.update({
            "client.plan_cache_hit_ratio": plan_cache_hit_ratio(self.session),
            "client.pinned_frac":
                result.report.cached_tasks / len(result.report.records),
            "middleware.adapters_self_ms": adapters_self_s * ms,
            "middleware.adapters.predicate_rows_per_s": n / adapters_self_s,
            "datamodel.dict_roundtrip_ms": depth["datamodel.dict_roundtrip"] * ms,
            "stores.relational.scan_rows_per_s":
                n / depth["stores.relational.scan"],
            "stores.relational.aggregate_ms":
                depth["stores.relational.aggregate"] * ms,
            "stores.relational.rows_examined_per_result": n / len(self.model),
            "stores.relational.update_rows_ms":
                self.span_fast_ms("stores.relational.update_rows"),
            "floor.scan_agg_ms": depth["floor.python"] * ms,
            "floor.scan_agg_numpy_ms": depth["floor.numpy"] * ms,
            "scan_agg.x_floor":
                depth["client.prepared_run"] / depth["floor.python"],
            "cluster.scatter_self_ms": (scatter_s - shard_cpu_s - gather_s) * ms,
            "cluster.gather_ms": gather_s * ms,
            "cluster.shards_contacted": float(scan_record.details["shards"]),
        })
        return out

