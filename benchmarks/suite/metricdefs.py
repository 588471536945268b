"""The metric dictionary: every name the suite emits, with unit and direction.

``BENCHMARK.json`` at the repo root lists exactly these (the smoke test
compares them); README.md holds the prose definitions and the table of which
layer metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

WORKLOADS = {
    "point_serve": "prepared point reads over TCP on 200 rows: serving tier, "
                   "session and obs do most of the work, the engine under a fifth",
    "scan_agg": "filter+group-aggregate over 50k rows, single and 4-shard, pins "
                "bypassed: adapters, relational operators, dict round trips; "
                "no serving tier",
    "mimic_pipeline": "the paper's Figure-2 program, pinned re-runs vs never-seen "
                      "one-shots vs admissions: compiler, optimizer, offload, "
                      "migration, all engines",
    "ingest_dash": "durable 50-row inserts beside view-backed dashboard polls and a "
                   "full recompute: views, changelog, WAL, checkpoints, recovery",
}

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which a later PR may worsen the metric.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("hot_fast_ms", "ms", "lower", 0.25),
    ("alt_fast_ms", "ms", "lower", 0.25),
    ("write_fast_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

_CLASSES = ("hot", "alt", "write")

#: (name, unit, better).  No bounds: these explain, they do not gate.
PER_LAYER = [
    ("serve.tcp_self_us", "us", "lower"),
    ("serve.inproc_self_us", "us", "lower"),
    ("serve.protocol_us", "us", "lower"),
    ("serve.admission_us", "us", "lower"),
    ("client.session_self_us", "us", "lower"),
    ("client.prepare_hit_us", "us", "lower"),
    ("client.plan_cache_hit_ratio", "ratio", "higher"),
    ("client.pinned_frac", "ratio", "higher"),
    ("obs.overhead_frac", "ratio", "lower"),
    ("middleware.executor_self_us", "us", "lower"),
    ("middleware.executor.charged_ms", "ms", "lower"),
    ("middleware.executor.wall_uncharged_frac", "ratio", "lower"),
    ("middleware.executor.observed_concurrency", "ratio", "higher"),
    ("middleware.adapters_self_ms", "ms", "lower"),
    ("middleware.adapters.predicate_rows_per_s", "1/s", "higher"),
    ("datamodel.dict_roundtrip_ms", "ms", "lower"),
    ("stores.relational.scan_rows_per_s", "1/s", "higher"),
    ("stores.relational.aggregate_ms", "ms", "lower"),
    ("stores.relational.rows_examined_per_result", "ratio", "lower"),
    ("stores.relational.update_rows_ms", "ms", "lower"),
    ("stores.relational.insert_rows_per_s", "1/s", "higher"),
    ("stores.relational.delete_rows_ms", "ms", "lower"),
    ("stores.relational.join_ms", "ms", "lower"),
    ("stores.timeseries.summarize_ms", "ms", "lower"),
    ("stores.text.features_ms", "ms", "lower"),
    ("stores.ml.train_ms", "ms", "lower"),
    ("stores.changelog.append_us", "us", "lower"),
    ("floor.point_us", "us", "lower"),
    ("floor.point_numpy_us", "us", "lower"),
    ("point.x_floor", "ratio", "lower"),
    ("floor.scan_agg_ms", "ms", "lower"),
    ("floor.scan_agg_numpy_ms", "ms", "lower"),
    ("scan_agg.x_floor", "ratio", "lower"),
    ("cluster.scatter_self_ms", "ms", "lower"),
    ("cluster.gather_ms", "ms", "lower"),
    ("cluster.shards_contacted", "count", "lower"),
    ("compiler.compile_ms", "ms", "lower"),
    ("compiler.fingerprint_us", "us", "lower"),
    ("middleware.optimizer.plan_ms", "ms", "lower"),
    ("middleware.migration.charged_ms", "ms", "lower"),
    ("middleware.migration.bytes", "count", "lower"),
    ("accelerators.offloaded_ops", "count", "higher"),
    ("accelerators.charged_ms", "ms", "lower"),
    ("accelerators.charged_speedup_x", "ratio", "higher"),
    ("views.refresh_us_per_delta_row", "us", "lower"),
    ("views.incremental_refreshes", "count", "higher"),
    ("views.full_recomputes", "count", "lower"),
    ("views.speedup_x", "ratio", "higher"),
    ("durability.wal_append_us", "us", "lower"),
    ("durability.wal_bytes_per_user_byte", "ratio", "lower"),
    ("durability.checkpoints", "count", "higher"),
    ("durability.checkpoint_ms", "ms", "lower"),
    ("durability.stall_max_ms", "ms", "lower"),
    ("durability.recovery_s", "s", "lower"),
    ("harness.cal_ms", "ms", "lower"),
    ("harness.cal_overhead_frac", "ratio", "lower"),
    ("harness.trace_overhead_frac", "ratio", "lower"),
    ("harness.failed_frac", "ratio", "lower"),
    ("harness.schedule_crc", "count", "higher"),
    *[(f"harness.{cls}_p50_ms", "ms", "lower") for cls in _CLASSES],
    *[(f"harness.{cls}_p99_ms", "ms", "lower") for cls in _CLASSES],
    *[(f"harness.{cls}_n", "count", "higher") for cls in _CLASSES],
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json(run_seconds: int) -> dict:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
