"""Tests for the data migrator and the simulated network."""

from __future__ import annotations

import pytest

from repro.accelerators import MIGRATION_ASIC, Accelerator
from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import MigrationError
from repro.middleware.migration import (
    STRATEGIES,
    DataMigrator,
    NetworkLink,
    SimulatedNetwork,
)


@pytest.fixture
def table() -> Table:
    """A numeric-heavy table shaped like Pipegen's benchmark (4 ints, 3 doubles)."""
    schema = make_schema(
        ("a", DataType.INT), ("b", DataType.INT), ("c", DataType.INT),
        ("d", DataType.INT), ("x", DataType.FLOAT), ("y", DataType.FLOAT),
        ("z", DataType.FLOAT))
    return Table(schema, [
        (i, i * 1_000_003, i * 77, -i, i * 3.14159265, i / 7.0, i * -2.718281828)
        for i in range(500)
    ])


class TestSimulatedNetwork:
    def test_transfer_time_scales_with_payload(self):
        network = SimulatedNetwork()
        small = network.transfer(1_000)
        large = network.transfer(10_000_000)
        assert large.total_s > small.total_s
        assert network.total_transferred_bytes() == 10_001_000

    def test_rdma_reduces_protocol_overhead(self):
        network = SimulatedNetwork()
        software = network.transfer(50_000_000, rdma=False)
        rdma = network.transfer(50_000_000, rdma=True)
        assert rdma.protocol_overhead_s < software.protocol_overhead_s
        assert rdma.wire_time_s == software.wire_time_s

    def test_negative_payload_rejected(self):
        with pytest.raises(MigrationError):
            SimulatedNetwork().transfer(-1)

    def test_invalid_link_rejected(self):
        with pytest.raises(MigrationError):
            NetworkLink(bandwidth_gbs=0)

    def test_reset(self):
        network = SimulatedNetwork()
        network.transfer(10)
        network.reset()
        assert network.total_time_s() == 0.0


class TestMigrator:
    def test_all_software_strategies_preserve_data(self, table):
        migrator = DataMigrator()
        for strategy in ("csv", "binary_pipe", "rdma"):
            received, report = migrator.migrate(table, strategy=strategy)
            assert received.rows == table.rows
            assert report.strategy == strategy
            assert report.total_s > 0

    def test_unknown_strategy_rejected(self, table):
        with pytest.raises(MigrationError):
            DataMigrator().migrate(table, strategy="carrier_pigeon")
        with pytest.raises(MigrationError):
            DataMigrator(default_strategy="warp")

    def test_accelerated_requires_device(self, table):
        with pytest.raises(MigrationError):
            DataMigrator().migrate(table, strategy="accelerated")

    def test_accelerated_path_with_asic(self, table):
        migrator = DataMigrator(serializer_accelerator=Accelerator(MIGRATION_ASIC))
        received, report = migrator.migrate(table, strategy="accelerated")
        assert received.rows == table.rows
        assert report.serialization_offloaded
        assert report.total_s > 0

    def test_csv_payload_larger_than_binary(self, table):
        migrator = DataMigrator()
        _, csv_report = migrator.migrate(table, strategy="csv")
        _, binary_report = migrator.migrate(table, strategy="binary_pipe")
        assert csv_report.payload_bytes > binary_report.payload_bytes

    def test_transformation_dominates_naive_path(self, table):
        """The paper's Pipegen observation: most of the CSV path is format
        transformation, not wire transfer."""
        migrator = DataMigrator()
        _, report = migrator.migrate(table, strategy="csv")
        assert report.transformation_s > report.transfer_s

    def test_strategy_ordering_matches_paper(self, table):
        """csv >= binary_pipe >= accelerated in total migration time."""
        migrator = DataMigrator(serializer_accelerator=Accelerator(MIGRATION_ASIC))
        reports = migrator.compare_strategies(table)
        assert set(reports) == set(STRATEGIES)
        assert reports["csv"].total_s >= reports["binary_pipe"].total_s
        assert reports["binary_pipe"].total_s >= reports["accelerated"].total_s * 0.5

    def test_bookkeeping_totals(self, table):
        migrator = DataMigrator()
        migrator.migrate(table, strategy="binary_pipe", source="a", target="b")
        assert migrator.total_migrated_bytes() > 0
        assert migrator.total_time_s() > 0
        assert migrator.reports[0].details["source"] == "a"
