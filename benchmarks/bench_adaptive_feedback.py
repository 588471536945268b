"""Adaptive cost-feedback re-optimization vs a frozen plan.

An orders table carries a status column whose value distribution defeats the
analytical selectivity model: the optimizer assumes an equality predicate
keeps ~10% of the rows, but ~95% of the table is ``'active'``.  The compiled
plan therefore budgets the downstream ``sort`` for a tenth of its real
input, the roofline host model calls it cheap, and the sort stays on the
host engine.

Two deployments run the same prepared program twice:

* **adaptive** (default config): the first run records observed
  cardinalities and the measured host sort time into the deployment's
  :class:`~repro.middleware.feedback.RuntimeStats`.  Before the second run,
  plan aging detects the drift, re-compiles with the fed-back statistics,
  and the placement pass — now comparing the *measured* host time against
  the FPGA's modelled time at the *observed* cardinality — offloads the
  sort.  The second run's charged time is the scan plus a simulated
  bitonic-sort, and the report carries ``reoptimized=True``.
* **frozen** (``adaptive_feedback=False``): the second run replays the
  original plan and pays the measured host sort again.

The headline metric is charged time (the same accounting every other bench
uses); re-optimization must win by at least ``ADAPTIVE_MIN_SPEEDUP``
(default 1.5x) and both plans must return identical rows.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_adaptive_feedback.py -q
Smoke mode (CI):  ADAPTIVE_BENCH_ROWS=40000 PYTHONPATH=src python -m pytest ...
"""

from __future__ import annotations

import os

from repro import DataflowProgram, col
from repro.accelerators import FPGA
from repro.core import build_accelerated_polystore
from repro.core.system import SystemConfig
from repro.datamodel import DataType, Table, make_schema
from repro.stores import RelationalEngine

N_ROWS = int(os.environ.get("ADAPTIVE_BENCH_ROWS", "120000"))
#: Required charged-time advantage of the re-optimized plan over the frozen one.
MIN_SPEEDUP = float(os.environ.get("ADAPTIVE_MIN_SPEEDUP", "1.5"))

_SCHEMA = make_schema(("order_id", DataType.INT), ("status", DataType.STRING),
                      ("amount", DataType.FLOAT))
#: ~95% 'active': the equality predicate's analytical 10% selectivity is off 9.5x.
_ROWS = [(i, "active" if i % 20 else "done", float((i * 37) % 9973) + i * 1e-5)
         for i in range(N_ROWS)]


def _deployment(*, adaptive: bool):
    engine = RelationalEngine("ordersdb")
    engine.load_table("orders", Table(_SCHEMA, _ROWS))
    config = SystemConfig(adaptive_feedback=adaptive)
    # FPGA only: the one accelerable operator in the plan is the sort, so the
    # device never pays kernel-reconfiguration churn between estimates.
    return build_accelerated_polystore([engine], config=config, devices=[FPGA])


def _program() -> DataflowProgram:
    from repro.eide import dataset

    active = (dataset("ordersdb").table("orders")
              .filter(col("status").eq("active"))
              .sort("amount", descending=True))
    program = DataflowProgram("active-by-amount")
    program.output("ranked", active)
    return program


def _two_runs(system):
    session = system.session(name="bench-adaptive")
    prepared = session.prepare(_program())
    first = prepared.run(reuse_scans=False)
    second = prepared.run(reuse_scans=False)
    session.close()
    return first, second


def test_reoptimization_beats_frozen_plan():
    adaptive_first, adaptive_second = _two_runs(_deployment(adaptive=True))
    frozen_first, frozen_second = _two_runs(_deployment(adaptive=False))

    # Both deployments compile the same misled plan initially: host sort.
    assert not adaptive_first.report.reoptimized
    assert adaptive_first.report.offloaded_tasks == 0
    assert frozen_second.report.offloaded_tasks == 0
    assert not frozen_second.report.reoptimized

    # Aging re-compiled with fed-back stats and the sort moved to the FPGA.
    assert adaptive_second.report.reoptimized
    assert adaptive_second.report.offloaded_tasks >= 1

    # Identical answers either way.
    adaptive_rows = adaptive_second.output("ranked").to_dicts()
    frozen_rows = frozen_second.output("ranked").to_dicts()
    assert adaptive_rows == frozen_rows
    assert len(adaptive_rows) == sum(1 for r in _ROWS if r[1] == "active")

    frozen_s = frozen_second.report.total_time_s
    adaptive_s = adaptive_second.report.total_time_s
    speedup = frozen_s / adaptive_s
    print(f"\nfrozen plan   : {frozen_s * 1000:.2f} ms charged (host sort)")
    print(f"re-optimized  : {adaptive_s * 1000:.2f} ms charged "
          f"({speedup:.1f}x faster)")
    headline = {
        "experiment": "adaptive_feedback",
        "rows": N_ROWS,
        "charged_frozen_ms": frozen_s * 1000,
        "charged_reoptimized_ms": adaptive_s * 1000,
        "speedup": speedup,
    }
    assert speedup >= MIN_SPEEDUP, (
        f"re-optimized plan only {speedup:.2f}x faster than frozen", headline)


def test_feedback_corrects_cardinality_estimates():
    system = _deployment(adaptive=True)
    session = system.session(name="bench-adaptive-est")
    prepared = session.prepare(_program())
    prepared.run(reuse_scans=False)

    misled = [n for n in prepared.compilation.graph.nodes()
              if n.kind in ("scan", "index_seek")][0]
    actual = sum(1 for r in _ROWS if r[1] == "active")
    assert misled.estimated_rows < actual / 2  # the model was badly off

    prepared.run(reuse_scans=False)  # triggers aging + re-compile
    corrected = [n for n in prepared.compilation.graph.nodes()
                 if n.kind in ("scan", "index_seek")][0]
    assert corrected.annotations.get("rows_source") == "observed"
    # EWMA of (model-free) observation: within a factor of ~2 of the truth.
    assert actual / 2 <= corrected.estimated_rows <= actual * 2
    assert prepared.reoptimizations == 1
    session.close()


if __name__ == "__main__":
    test_reoptimization_beats_frozen_plan()
    test_feedback_corrects_cardinality_estimates()
