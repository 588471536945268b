"""E1 — operator offload: FPGA bitonic sort vs CPU sort (paper §III-A-1).

Expected shape: below the break-even granularity the host wins (offload
overhead dominates); above it the FPGA wins, with the advantage growing and
then saturating.
"""

from __future__ import annotations

import random

import pytest

from repro.accelerators import FPGA, Accelerator, KernelRegistry, OffloadPlanner, WorkEstimate
from repro.catalog import Catalog
from repro.datamodel import DataType, Table, make_schema
from repro.ir.graph import IRGraph
from repro.ir.nodes import Operator
from repro.middleware.executor import Executor
from repro.stores import RelationalEngine

SIZES = [1_000, 10_000, 100_000, 1_000_000]


def _rows(n: int) -> list[dict]:
    rng = random.Random(42)
    return [{"pid": i, "admit_date": rng.random() * 1e6} for i in range(n)]


@pytest.mark.parametrize("n", SIZES)
def test_cpu_sort(benchmark, n):
    """Host Timsort over n rows (the CPU baseline of E1)."""
    rows = _rows(n)
    result = benchmark(lambda: sorted(rows, key=lambda r: r["admit_date"]))
    assert len(result) == n
    benchmark.extra_info["experiment"] = "E1"
    benchmark.extra_info["rows"] = n


@pytest.mark.parametrize("n", SIZES)
def test_fpga_bitonic_sort_simulated(benchmark, n):
    """Simulated FPGA bitonic sort: reports modelled device time, not wall time."""
    fpga = Accelerator(FPGA)
    planner = OffloadPlanner(KernelRegistry([fpga]))

    def decide():
        return planner.decide("sort", WorkEstimate(rows=n))

    decision = benchmark(decide)
    benchmark.extra_info["experiment"] = "E1"
    benchmark.extra_info["rows"] = n
    benchmark.extra_info["host_time_s"] = decision.host_time_s
    benchmark.extra_info["fpga_time_s"] = decision.accelerator_time_s
    benchmark.extra_info["offloaded"] = decision.offloaded
    benchmark.extra_info["speedup"] = decision.speedup
    # The paper's shape: offload only pays off above a granularity threshold.
    if n <= 1_000:
        assert not decision.offloaded
    if n >= 1_000_000:
        assert decision.offloaded and decision.speedup > 1.0


def test_fpga_sort_through_the_executor(benchmark):
    """An FPGA-placed sort runs on its engine and is charged the network's time."""
    rows = [(row["pid"], row["admit_date"]) for row in _rows(4_000)]
    catalog = Catalog()
    db = RelationalEngine("db")
    db.load_table("admissions", Table(
        make_schema(("pid", DataType.INT), ("admit_date", DataType.FLOAT)), rows))
    catalog.register_engine(db)
    catalog.register_accelerator(Accelerator(FPGA))
    graph = IRGraph("e1")
    read = graph.add(Operator("scan", {"table": "admissions"}, engine="db"))
    ordered = graph.add(Operator("sort", {"by": "admit_date"}, [read.op_id], "db",
                                 accelerator="fpga0"))
    graph.mark_output(ordered.op_id)

    outputs, report = benchmark(lambda: Executor(catalog).execute(graph))
    assert outputs[ordered.op_id].rows == sorted(rows, key=lambda r: r[1])
    record = report.records[-1]
    assert record.offloaded and record.details["kernel"] == "bitonic_sort"
    benchmark.extra_info["experiment"] = "E1"
    benchmark.extra_info["charged_time_s"] = record.charged_time_s
    benchmark.extra_info["wall_time_s"] = record.wall_time_s
