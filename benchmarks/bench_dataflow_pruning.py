"""Shard pruning: a dataflow key predicate vs full scatter-gather.

A sales table is hash-partitioned across 4 relational shards on
``customer_id``.  The same dataflow query — ``table("sales")
.filter(col("customer_id") == K).aggregate(...)`` — runs twice:

* **pruned** (default compiler options): the pushdown pass absorbs the
  structured predicate into the scan and the scatter path routes the read to
  the single shard owning ``K``;
* **full scatter** (``pushdown=False, fusion=False``): the filter stays
  above the scan, so no predicate reaches the read: it is one read of every
  shard's heap, and the filter and aggregate run over all its rows.  (With
  fusion on, the fusion pass would fold the filter into the scan, whose
  shard-key conjunct then routes the read to the owning shard too.)

The headline metric is *charged* time (a relational read's thread CPU, one
read however many shards it folds): the pruned read must beat the full
scatter-gather by at least ``PRUNING_MIN_SPEEDUP`` (default 2x) at 4 shards,
and both plans must return identical rows.  Measured on a 2-core box: 7.5-9.9x
at the default five iterations and 8.2-9.1x in the smoke form (10 runs each).

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_dataflow_pruning.py -q
Smoke mode (CI):  PRUNING_BENCH_ITERS=1 PYTHONPATH=src python -m pytest ...
"""

from __future__ import annotations

import os
from typing import Any

from repro import DataflowProgram, col
from repro.compiler import CompilerOptions
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.stores import RelationalEngine

N_ROWS = 32000
NUM_SHARDS = 4
N_CUSTOMERS = 64
TARGET_CUSTOMER = 7
#: Timed repetitions per configuration; CI smoke mode sets 1.  Never fewer
#: than three: one sample of a 0.1 ms charged read is mostly scheduler noise.
ITERATIONS = max(3, int(os.environ.get("PRUNING_BENCH_ITERS", "5")))
#: Required charged-time advantage of the pruned read over full scatter.
MIN_SPEEDUP = float(os.environ.get("PRUNING_MIN_SPEEDUP", "2.0"))

_SCHEMA = make_schema(("customer_id", DataType.INT), ("amount", DataType.FLOAT),
                      ("region", DataType.STRING))
_ROWS = [(i % N_CUSTOMERS, float((i * 37) % 997), f"r{i % 5}")
         for i in range(N_ROWS)]


def _deployment():
    system = build_cpu_polystore([])
    engine = system.register_sharded_engine("salesdb", RelationalEngine, NUM_SHARDS)
    engine.create_table("sales", _SCHEMA, shard_key="customer_id")
    engine.insert("sales", _ROWS)
    # The shard key is also hash-indexed on every shard: the absorbed
    # predicate then routes to one shard AND seeks instead of scanning it.
    engine.create_index("sales", "customer_id")
    return system, engine


def _program() -> DataflowProgram:
    from repro.eide import dataset

    sales = dataset("salesdb").table("sales")
    keyed = sales.filter(col("customer_id") == TARGET_CUSTOMER)
    summary = keyed.aggregate([], total=("sum", "amount"), n=("count", None))
    program = DataflowProgram("keyed-spend")
    program.output("summary", summary)
    return program


def _charged_time(system, options: CompilerOptions
                  ) -> tuple[float, list[dict], dict[str, Any]]:
    """Best-of-N charged execution time, the result rows and the details of
    the run's relational read."""
    session = system.session(name="bench-pruning")
    prepared = session.prepare(_program(), options=options)
    prepared.run(reuse_scans=False)  # warm plan cache and adapters
    best = float("inf")
    rows: list[dict] = []
    for _ in range(ITERATIONS):
        result = prepared.run(reuse_scans=False)
        best = min(best, result.report.total_time_s)
        rows = result.output("summary").to_dicts()
    session.close()
    [read] = [r for r in result.report.records if r.kind in ("scan", "index_seek")]
    return best, rows, read.details


def test_key_predicate_beats_full_scatter():
    system, engine = _deployment()
    pruned_s, pruned_rows, _ = _charged_time(system, CompilerOptions())
    full_s, full_rows, full_read = _charged_time(
        system, CompilerOptions(pushdown=False, fusion=False))
    assert full_read["fan_out"] == "fold"  # the ablation reads every shard
    assert len(full_read["contacted_shards"]) == NUM_SHARDS

    assert pruned_rows == full_rows, "pruned plan changed the answer"
    expected_n = sum(1 for row in _ROWS if row[0] == TARGET_CUSTOMER)
    assert pruned_rows[0]["n"] == expected_n

    speedup = full_s / pruned_s
    print(f"\nfull scatter ({NUM_SHARDS} shards): {full_s * 1000:.3f} ms charged")
    print(f"key-pruned read          : {pruned_s * 1000:.3f} ms charged "
          f"({speedup:.1f}x faster)")
    headline = {
        "experiment": "dataflow_pruning",
        "rows": N_ROWS,
        "shards": NUM_SHARDS,
        "charged_full_ms": full_s * 1000,
        "charged_pruned_ms": pruned_s * 1000,
        "speedup": speedup,
    }
    assert speedup >= MIN_SPEEDUP, (
        f"pruned read only {speedup:.2f}x faster than full scatter", headline)


def _counting_reads(engine) -> list[int]:
    """Per shard of ``engine``, a count of the read calls made on it from now on."""
    calls = [0] * engine.num_shards

    def counted(index, method):
        def read(*args, **kwargs):
            calls[index] += 1
            return method(*args, **kwargs)
        return read

    for index, shard in enumerate(engine.shards):
        for name in ("scan", "index_lookup", "range_lookup", "execute_sql"):
            setattr(shard, name, counted(index, getattr(shard, name)))
    return calls


def test_pruned_read_contacts_only_the_owning_shard():
    system, engine = _deployment()
    owner = engine.partitioner.shard_for(TARGET_CUSTOMER)
    calls = _counting_reads(engine)
    result = system.execute(_program())
    contacted = [i for i, n in enumerate(calls) if n]
    assert contacted == [owner], f"contacted shards {contacted}, owner {owner}"
    read = [r for r in result.report.records
            if r.kind in ("scan", "index_seek")][0]
    assert read.kind == "index_seek"  # predicate + index converted the scan
    assert read.details["fan_out"] == "routed"
    assert read.details["contacted_shards"] == [engine.shards[owner].name]


if __name__ == "__main__":
    test_key_predicate_beats_full_scatter()
    test_pruned_read_contacts_only_the_owning_shard()
