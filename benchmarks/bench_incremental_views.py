"""Incremental view maintenance vs full recomputation after a small delta.

A 100k+ row orders table backs a filtered group-by view (sum/count/avg per
region).  After materialization, a mixed mutation batch touching at most
``DELTA_FRACTION`` of the base (inserts + targeted deletes + updates) lands
on the engine.  Two ways to get the fresh answer:

* **incremental** — :meth:`MaterializedView.refresh` pulls the typed delta
  batches from the engine's scoped changelog and pushes them through the
  compiled delta program (the ordinary executor runs it, so the charged
  time is the same accounting as everything else);
* **recompute** — the same expression prepared with ``use_views=False``
  re-executes from the base table.

The refresh must win on charged time by at least ``VIEWS_MIN_SPEEDUP`` and
both answers must be identical.  The bar is 3x.  Measured at 100k rows / 1%
delta, five runs on one box: recompute 40-57 ms charged, refresh 1.3-2.0 ms,
28-31x (PR 18, positional plan-typed Z-sets; the parent on the same box:
42-51 ms against 6.3-8.7 ms, 5.1-7.0x).  The bar stays where PR 14 put it —
it guards against the refresh going O(base), not against a slow constant.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_incremental_views.py -q
Smoke mode (CI):  VIEWS_BENCH_ITERS=1 PYTHONPATH=src python -m pytest ...
"""

from __future__ import annotations

import os

from repro import PolystorePlusPlus, col
from repro.compiler.pipeline import CompilerOptions
from repro.eide.dataflow import DataflowProgram, Dataset
from repro.datamodel import DataType, Table, make_schema
from repro.stores import RelationalEngine

#: Base cardinality; the acceptance criterion requires >= 100k rows.
N_ROWS = int(os.environ.get("VIEWS_BENCH_ROWS", "100000"))
#: Upper bound on the mutated fraction of the base (<= 1% per acceptance).
DELTA_FRACTION = float(os.environ.get("VIEWS_DELTA_FRACTION", "0.01"))
#: Required charged-time advantage of refresh over recompute.
MIN_SPEEDUP = float(os.environ.get("VIEWS_MIN_SPEEDUP", "3.0"))
#: Mutate/refresh/recompute rounds (averaged); 1 in CI smoke mode.
ITERATIONS = int(os.environ.get("VIEWS_BENCH_ITERS", "3"))

REGIONS = ("north", "south", "east", "west", "centre")

_SCHEMA = make_schema(("order_id", DataType.INT), ("region", DataType.STRING),
                      ("amount", DataType.FLOAT))


def _deployment():
    system = PolystorePlusPlus()
    engine = system.register_engine(RelationalEngine("salesdb"))
    engine.load_table("orders", Table(_SCHEMA, [
        (i, REGIONS[i % len(REGIONS)], float((i * 13) % 97))
        for i in range(N_ROWS)
    ]))
    return system, engine


def _spend_expr(system):
    return (system.dataset("salesdb").table("orders")
            .filter(col("amount") > 1.0)
            .aggregate(["region"],
                       total=("sum", "amount"),
                       n=("count", None),
                       mean=("avg", "amount")))


def _recompute(system, expr):
    program = DataflowProgram("views-bench-recompute")
    program.output("res", Dataset(expr.node))
    return system.execute(program, options=CompilerOptions(use_views=False))


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


def _mutate(engine, round_index: int) -> int:
    """One small mixed batch; returns the number of rows touched."""
    budget = max(1, int(N_ROWS * DELTA_FRACTION))
    inserts = budget // 2
    base_id = 10_000_000 + round_index * budget
    engine.insert("orders", [
        (base_id + i, REGIONS[i % len(REGIONS)], float(i % 50) + 2.0)
        for i in range(inserts)
    ])
    remaining = budget - inserts
    deleted = len(engine.delete_rows(
        "orders", (col("order_id") >= round_index * (remaining // 2))
        & (col("order_id") < round_index * (remaining // 2) + remaining // 2)))
    updated = len(engine.update_rows(
        "orders",
        (col("order_id") >= 1000 + round_index) & (col("order_id") < 1000
                                                   + round_index
                                                   + remaining // 2),
        {"amount": 3.0 + round_index}))
    return inserts + deleted + updated


def test_incremental_refresh_beats_full_recompute():
    system, engine = _deployment()
    expr = _spend_expr(system)
    view = system.create_view("spend_by_region", expr, policy="manual")
    assert view.incremental, "the view must compile to a delta program"

    refresh_s = 0.0
    recompute_s = 0.0
    touched_total = 0
    for round_index in range(ITERATIONS):
        touched = _mutate(engine, round_index)
        assert touched <= int(N_ROWS * DELTA_FRACTION) + 1
        touched_total += touched
        outcome = view.refresh()
        assert outcome.kind == "incremental", outcome
        refresh_s += outcome.charged_time_s
        baseline = _recompute(system, expr)
        recompute_s += baseline.total_time_s
        # Correctness on every round: refresh equals recompute.
        assert _canon(view.read()[0].to_dicts()) == \
            _canon(baseline.output("res").to_dicts())

    speedup = recompute_s / refresh_s
    print(f"\nbase rows          : {N_ROWS}")
    print(f"rows touched/round : ~{touched_total // ITERATIONS} "
          f"(<= {DELTA_FRACTION:.1%} of base)")
    print(f"full recompute     : {recompute_s / ITERATIONS * 1000:.2f} ms charged")
    print(f"incremental refresh: {refresh_s / ITERATIONS * 1000:.3f} ms charged "
          f"({speedup:.1f}x faster)")
    headline = {
        "experiment": "incremental_views",
        "rows": N_ROWS,
        "delta_fraction": DELTA_FRACTION,
        "charged_recompute_ms": recompute_s / ITERATIONS * 1000,
        "charged_refresh_ms": refresh_s / ITERATIONS * 1000,
        "speedup": speedup,
    }
    assert speedup >= MIN_SPEEDUP, (
        f"incremental refresh only {speedup:.2f}x faster than recompute",
        headline)


def test_noop_refresh_costs_nothing():
    system, _ = _deployment()
    view = system.create_view("spend_by_region", _spend_expr(system),
                              policy="manual")
    outcome = view.refresh()
    assert outcome.kind == "noop"
    assert outcome.charged_time_s == 0.0


if __name__ == "__main__":
    test_incremental_refresh_beats_full_recompute()
    test_noop_refresh_costs_nothing()
