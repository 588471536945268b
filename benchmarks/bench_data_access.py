"""E3 — data-access offload: streaming scan + filter/project near the data (§III-A-2).

Expected shape: the bytes reaching the host drop with predicate selectivity
when filter/projection run bump-in-the-wire, and the offload decision flips
to the FPGA once the scanned volume is large enough.
"""

from __future__ import annotations

import pytest

from repro.accelerators import FPGA, Accelerator, KernelRegistry, OffloadPlanner, WorkEstimate
from repro.accelerators.kernels import offload_cost
from repro.datamodel import DataType, Table, make_schema
from repro.stores.relational import RelationalEngine, compare
from repro.stores.relational.operators import Filter, TableScan

SELECTIVITIES = [0.01, 0.1, 0.5]
ROWS = 20_000


@pytest.fixture(scope="module")
def events_engine() -> RelationalEngine:
    schema = make_schema(("event_id", DataType.INT), ("device", DataType.INT),
                         ("value", DataType.FLOAT))
    table = Table(schema, [(i, i % 100, (i % 1000) / 1000.0) for i in range(ROWS)])
    engine = RelationalEngine("events-db")
    engine.load_table("events", table)
    return engine


@pytest.mark.parametrize("selectivity", SELECTIVITIES)
def test_host_scan_filter(benchmark, events_engine, selectivity):
    """Host-side scan + filter at several selectivities."""
    predicate = compare("value", "<", selectivity)

    def run():
        rows = events_engine.scan("events").to_dicts()
        return Filter(TableScan(rows), predicate).execute()

    kept = benchmark(run)
    benchmark.extra_info["experiment"] = "E3"
    benchmark.extra_info["selectivity"] = selectivity
    benchmark.extra_info["rows_kept"] = len(kept)


@pytest.mark.parametrize("selectivity", SELECTIVITIES)
def test_fpga_filter_reduces_host_bytes(benchmark, events_engine, selectivity):
    """Bump-in-the-wire filter: bytes shipped to the host shrink with selectivity."""
    predicate = compare("value", "<", selectivity)
    events = events_engine.scan("events")

    def run():
        kept = Filter(TableScan(events), predicate).to_table()
        return kept, offload_cost(Accelerator(FPGA), "filter", WorkEstimate(
            rows=len(events), bytes_in=events.estimated_bytes(),
            bytes_out=kept.estimated_bytes()))

    kept, report = benchmark(run)
    benchmark.extra_info["experiment"] = "E3"
    benchmark.extra_info["selectivity"] = selectivity
    benchmark.extra_info["bytes_moved"] = report.bytes_moved
    benchmark.extra_info["rows_kept"] = len(kept)
    assert len(kept) == pytest.approx(selectivity * ROWS, rel=0.2)
    assert report.bytes_moved == (ROWS + len(kept)) * events.schema.row_width()


@pytest.mark.parametrize("rows", [1_000, 100_000, 2_000_000])
def test_scan_offload_decision_by_volume(benchmark, rows):
    """The scan+filter offload decision flips once volume is large enough."""
    planner = OffloadPlanner(KernelRegistry([Accelerator(FPGA)]))
    decision = benchmark(lambda: planner.decide(
        "filter", WorkEstimate(rows=rows, selectivity=0.1)))
    benchmark.extra_info["experiment"] = "E3"
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["offloaded"] = decision.offloaded
    benchmark.extra_info["speedup"] = decision.speedup
