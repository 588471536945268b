"""Observability end to end: trace a durable partitioned deployment.

A relational engine whose table splits into three partitions is opened on
durable storage with ``durability_sync="always"`` so every ingest batch pays
a real WAL fsync, then an aggregation over the table is prepared and re-run
— all with observability on at ``obs_trace_sample_rate=1.0``.  The example then
checks the claims the instrumentation makes:

* the Prometheus export parses and contains the core metric families,
* each run's one read of the partitioned table is one ``scan`` operator
  span nested (transitively) under its request span,
* WAL fsync spans nest under the ingest request that caused them,
* the span buffer converts to a Chrome ``trace_event`` document —
  pass ``--trace PATH`` to write it, then load it in
  https://ui.perfetto.dev or ``about:tracing``,
* the sampling profiler attributes stacks to the running requests —
  pass ``--profile PATH`` to write a speedscope JSON document (open it
  at https://speedscope.app),
* lifecycle events land in the structured log with trace correlation —
  pass ``--logs PATH`` to dump the buffer as JSON lines,
* ``system.health()`` rolls component checks and SLO burn rates up to
  ``ok`` on this healthy deployment.

Run with:  PYTHONPATH=src python examples/observability_trace.py --trace trace.json
Fast mode: EXAMPLES_FAST=1 ... (CI smoke settings)
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from repro import DataflowProgram, SystemConfig
from repro.core import build_accelerated_polystore
from repro.datamodel import DataType, make_schema
from repro.obs import ancestors, parse_prometheus_text
from repro.stores import RelationalEngine

FAST = bool(os.environ.get("EXAMPLES_FAST"))
N_ORDERS = 200 if FAST else 2_000
N_PARTITIONS = 3
RUNS = 3 if FAST else 10

#: Families the CI smoke step (and this example) require in the scrape.
CORE_FAMILIES = (
    "polystore_requests_total",
    "polystore_request_seconds",
    "polystore_plan_cache_total",
    "polystore_operators_total",
    "polystore_wal_appends_total",
    "polystore_wal_fsync_seconds",
)


def build_observed_deployment(data_dir: str):
    """A durable partitioned deployment with tracing and profiling fully on."""
    config = SystemConfig(obs_enabled=True, obs_trace_sample_rate=1.0,
                          durability_sync="always",
                          obs_profile_enabled=True, obs_profile_hz=200.0)
    sales = RelationalEngine("sales", partitions=N_PARTITIONS)
    system = build_accelerated_polystore([sales], config=config)
    system.open(data_dir)
    return system, sales


def traced_ingest(system, sales) -> None:
    """Load orders inside a user-opened request span (WAL fsyncs nest here)."""
    schema = make_schema(("order_id", DataType.INT),
                        ("customer", DataType.STRING),
                        ("amount", DataType.FLOAT))
    with system.obs.tracer.request("ingest", rows=N_ORDERS):
        sales.create_table("orders", schema, shard_key="order_id")
        for start in range(0, N_ORDERS, 100):
            sales.insert("orders", [
                (i, f"c{i % 20}", float(i % 37) * 2.5)
                for i in range(start, min(start + 100, N_ORDERS))
            ])


def build_scan_program(system) -> DataflowProgram:
    """One aggregation over every partition."""
    totals = (system.dataset("sales").table("orders")
              .aggregate(["customer"], total=("sum", "amount"),
                         n_orders=("count", None))
              .named("totals"))
    program = DataflowProgram("partitioned_scan")
    program.output("totals", totals)
    return program


def check_span_nesting(system) -> tuple[int, int]:
    """Scan and WAL fsync spans must sit under request spans."""
    spans = system.obs.tracer.spans()
    by_kind = {"scan": [], "wal_fsync": []}
    for span in spans:
        if span.name.startswith("op:") and span.attrs.get("kind") == "scan":
            by_kind["scan"].append(span)
        elif span.name == "wal_fsync":
            by_kind["wal_fsync"].append(span)
    # A prepared run re-reads only after a write, so at least the first run
    # read, each read one span of its own: no per-partition span.
    assert by_kind["scan"], by_kind
    assert not any(span.name.startswith("shard:") for span in spans)
    assert by_kind["wal_fsync"], "sync=always ingest produced no fsync spans"
    for kind, group in by_kind.items():
        for span in group:
            chain = [parent.name for parent in ancestors(span, spans)]
            assert any(name.startswith("request:") or name == "ingest"
                       for name in chain), (kind, span.name, chain)
    return len(by_kind["scan"]), len(by_kind["wal_fsync"])


def _arg(flag: str) -> str | None:
    if flag in sys.argv:
        return sys.argv[sys.argv.index(flag) + 1]
    return None


def main() -> None:
    trace_path = _arg("--trace")
    profile_path = _arg("--profile")
    logs_path = _arg("--logs")

    with tempfile.TemporaryDirectory(prefix="obs-trace-") as data_dir:
        system, sales = build_observed_deployment(data_dir)
        traced_ingest(system, sales)

        program = build_scan_program(system)
        with system.session(name="obs-demo") as session:
            prepared = session.prepare(program, mode="polystore++")
            for _ in range(RUNS):
                result = prepared.run()
        print(f"aggregated {len(result.output('totals'))} customer groups "
              f"over {N_PARTITIONS} partitions, {RUNS} prepared runs")

        # -- Prometheus: the scrape parses and carries the core families --
        scrape = system.export_prometheus()
        families = parse_prometheus_text(scrape)
        missing = [name for name in CORE_FAMILIES if name not in families]
        assert not missing, f"scrape is missing families: {missing}"
        print(f"prometheus scrape: {len(families)} families, "
              f"{sum(len(samples) for samples in families.values())} samples")
        print("  " + "\n  ".join(
            line for line in scrape.splitlines()
            if line.startswith("polystore_requests_total")))

        # -- span tree: reads and fsyncs nest under their requests --
        scans, fsyncs = check_span_nesting(system)
        print(f"span nesting ok: {scans} scan spans, "
              f"{fsyncs} WAL fsync spans, all under request spans")

        # -- Chrome trace: write it for Perfetto / about:tracing --
        document = system.export_chrome_trace()
        print(f"chrome trace: {len(document['traceEvents'])} events")
        if trace_path:
            with open(trace_path, "w") as handle:
                json.dump(document, handle, default=repr)
            print(f"wrote {trace_path} — open it at https://ui.perfetto.dev")

        # -- profiler: the sampler saw this process working --
        system.obs.profiler.stop()
        speedscope = system.export_profile(fmt="speedscope")
        samples = speedscope["profiles"][0]["samples"]
        assert samples, "profiler captured no stacks"
        print(f"profiler: {len(samples)} distinct stacks, "
              f"{system.obs.profiler.describe()['samples']} samples")
        if profile_path:
            with open(profile_path, "w") as handle:
                json.dump(speedscope, handle)
            print(f"wrote {profile_path} — open it at https://speedscope.app")

        # -- structured log: durability lifecycle events were recorded --
        records = system.export_logs(component="durability")
        assert any(r["event"] == "wal_checkpoint" for r in records), records
        print(f"structured log: {len(system.export_logs())} records "
              f"({len(records)} durability)")
        if logs_path:
            with open(logs_path, "w") as handle:
                handle.write(system.obs.events.export_jsonl())
            print(f"wrote {logs_path} (JSON lines)")

        # -- health: checks and SLO burn rates roll up to ok --
        health = system.health()
        assert health["status"] == "ok", health
        assert not health["burning_slos"], health
        print("health: " + ", ".join(
            f"{check['name']}={check['status']}"
            for check in health["checks"]))

        system.close()


if __name__ == "__main__":
    main()
