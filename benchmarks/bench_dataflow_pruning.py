"""Shard pruning: a dataflow key predicate vs a full read.

A sales table is partitioned 4 ways on ``customer_id``.  The same dataflow
query — ``table("sales").filter(col("customer_id") == K).aggregate(...)`` —
runs twice:

* **pruned** (default compiler options): the pushdown pass absorbs the
  structured predicate into the scan, which, with the key hash-indexed,
  becomes an index seek (without the index, the scan reads only the pages
  whose partition summary holds ``K``'s partition);
* **full read** (``pushdown=False, fusion=False``): the filter stays above
  the scan, so no predicate reaches the read: it reads every page of the
  heap, and the filter and aggregate run over all its rows.

The headline metric is *charged* time (each operator's wall time): the
pruned read must beat the full read by at least ``PRUNING_MIN_SPEEDUP``
(default 2x) at 4 partitions, and both plans must return identical rows.
Measured on a 2-core box: 7.5-12.4x over 10 smoke runs (best of three
iterations each).

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
from repro.stores.relational.partition import partition_of
from repro.stores.relational.storage import HeapStorage

N_ROWS = 32000
NUM_SHARDS = 4
N_CUSTOMERS = 64
TARGET_CUSTOMER = 7
#: Timed repetitions per configuration; CI smoke mode sets 1.  Never fewer
#: than three: one sample of a 0.1 ms charged read is mostly scheduler noise.
ITERATIONS = max(3, int(os.environ.get("PRUNING_BENCH_ITERS", "5")))
#: Required charged-time advantage of the pruned read over the full read.
MIN_SPEEDUP = float(os.environ.get("PRUNING_MIN_SPEEDUP", "2.0"))

_SCHEMA = make_schema(("customer_id", DataType.INT), ("amount", DataType.FLOAT),
                      ("region", DataType.STRING))
_ROWS = [(i % N_CUSTOMERS, float((i * 37) % 997), f"r{i % 5}")
         for i in range(N_ROWS)]


def _deployment(index: bool = True):
    system = build_cpu_polystore([])
    engine = system.register_engine(RelationalEngine("salesdb", partitions=NUM_SHARDS))
    engine.create_table("sales", _SCHEMA, shard_key="customer_id")
    engine.insert("sales", _ROWS)
    if index:
        # The shard key hash-indexed: the absorbed predicate seeks instead
        # of scanning.
        engine.create_index("sales", "customer_id")
    return system, engine


def _pages_read(monkeypatch) -> list[tuple[int, int]]:
    """``(pages examined, pages there were)`` of every heap read from now on."""
    reads: list[tuple[int, int]] = []
    candidates = HeapStorage.candidates

    def counted(heap, *args, **kwargs):
        pages, total = candidates(heap, *args, **kwargs)
        reads.append((len(pages), total))
        return pages, total

    monkeypatch.setattr(HeapStorage, "candidates", counted)
    return reads


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


def test_key_predicate_beats_a_full_read(monkeypatch):
    system, engine = _deployment()
    pruned_s, pruned_rows, _ = _charged_time(system, CompilerOptions())
    reads = _pages_read(monkeypatch)
    full_s, full_rows, full_read = _charged_time(
        system, CompilerOptions(pushdown=False, fusion=False))
    assert full_read["shards"] == NUM_SHARDS  # the ablation reads every page
    assert reads and all(examined == total for examined, total in reads)

    assert pruned_rows == full_rows, "pruned plan changed the answer"
    expected_n = sum(1 for row in _ROWS if row[0] == TARGET_CUSTOMER)
    assert pruned_rows[0]["n"] == expected_n

    speedup = full_s / pruned_s
    print(f"\nfull read ({NUM_SHARDS} partitions): {full_s * 1000:.3f} ms charged")
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
        f"pruned read only {speedup:.2f}x faster than the full read", headline)


def test_pruned_read_examines_only_the_owning_partitions_pages(monkeypatch):
    system, engine = _deployment(index=False)
    pages = engine._stored("sales").heap._pages
    owner = partition_of(TARGET_CUSTOMER, NUM_SHARDS)
    owned = sum(1 for page in pages[:-1] if owner in page.partitions(0, NUM_SHARDS))
    reads = _pages_read(monkeypatch)
    result = system.execute(_program())
    # The owner's sealed pages and the open last page, a quarter of them.
    assert reads == [(owned + 1, len(pages))] and owned + 1 < len(pages) / 2
    [read] = [r for r in result.report.records if r.kind == "scan"]
    assert read.details["shards"] == 1
    seek = [r for r in _deployment()[0].execute(_program()).report.records
            if r.kind in ("scan", "index_seek")][0]
    assert seek.kind == "index_seek"  # predicate + index converted the scan
    assert seek.details["shards"] == 1


if __name__ == "__main__":
    import pytest

    pytest.main([__file__, "-q", "-s"])
