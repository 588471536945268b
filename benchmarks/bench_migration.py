"""E4 — data migration: CSV vs binary pipe vs RDMA vs accelerated (§III-A-3).

Expected shape (the Pipegen claim): the naive CSV path is dominated by format
transformation, binary pipes remove most of it, and the accelerated path
(offloaded serialization pipelined with RDMA transfer) removes most of the
remainder.
"""

from __future__ import annotations

import pytest

from repro.accelerators import MIGRATION_ASIC, Accelerator
from repro.datamodel import DataType, Table, make_schema
from repro.middleware.migration import DataMigrator, SimulatedNetwork

SIZES = [1_000, 10_000, 100_000]
STRATEGIES = ["csv", "binary_pipe", "rdma", "accelerated"]


def pipegen_table(rows: int) -> Table:
    """The Pipegen benchmark schema: 4 ints and 3 doubles per element."""
    schema = make_schema(
        ("a", DataType.INT), ("b", DataType.INT), ("c", DataType.INT),
        ("d", DataType.INT), ("x", DataType.FLOAT), ("y", DataType.FLOAT),
        ("z", DataType.FLOAT))
    return Table(schema, [
        (i, i * 7, i * 13, -i, i * 3.14159, i / 7.0, i * -2.71828)
        for i in range(rows)
    ])


@pytest.fixture(scope="module")
def tables():
    return {rows: pipegen_table(rows) for rows in SIZES}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("rows", SIZES)
def test_migration_strategy(benchmark, tables, strategy, rows):
    """Migrate the Pipegen-style table under each strategy."""
    table = tables[rows]
    migrator = DataMigrator(SimulatedNetwork(), serializer_accelerator=Accelerator(MIGRATION_ASIC))

    def run():
        _, report = migrator.migrate(table, strategy=strategy)
        return report

    report = benchmark(run)
    benchmark.extra_info["experiment"] = "E4"
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["modelled_total_s"] = report.total_s
    benchmark.extra_info["transformation_s"] = report.transformation_s
    benchmark.extra_info["transfer_s"] = report.transfer_s
    benchmark.extra_info["payload_bytes"] = report.payload_bytes
    if strategy == "csv":
        # Transformation, not the wire, dominates the naive path.
        assert report.transformation_s > report.transfer_s


@pytest.mark.parametrize("rows", [10_000])
def test_strategy_ordering(benchmark, tables, rows):
    """One call comparing every strategy; total time must fall monotonically."""
    table = tables[rows]
    migrator = DataMigrator(SimulatedNetwork(), serializer_accelerator=Accelerator(MIGRATION_ASIC))

    reports = benchmark(lambda: migrator.compare_strategies(table))
    totals = {name: report.total_s for name, report in reports.items()}
    benchmark.extra_info["experiment"] = "E4"
    benchmark.extra_info["totals_s"] = totals
    assert totals["csv"] > totals["binary_pipe"] > totals["accelerated"]
