"""End-to-end tests of the PolystorePlusPlus facade and execution modes."""

from __future__ import annotations

import pytest

from repro.accelerators import FLEET, FPGA, GPU
from repro.core import (
    EXECUTION_MODES,
    PolystorePlusPlus,
    build_accelerated_polystore,
)
from repro.exceptions import CatalogError, ConfigurationError
from repro.stores import RelationalEngine
from repro.workloads import build_admission_history_program, build_mimic_program


class TestDeployment:
    def test_register_and_describe(self, mimic_accelerated_system):
        description = mimic_accelerated_system.describe()
        engine_names = {e["name"] for e in description["engines"]}
        assert {"clinical-db", "monitors", "notes-db", "dnn-engine"} <= engine_names
        assert description["accelerators"]
        assert description["config"]["objective"] == "latency"

    def test_duplicate_engine_rejected(self, mimic_cpu_system):
        with pytest.raises(CatalogError):
            mimic_cpu_system.register_engine(RelationalEngine("clinical-db"))

    def test_unknown_mode_rejected(self, mimic_cpu_system):
        with pytest.raises(ConfigurationError):
            mimic_cpu_system.execute(build_mimic_program(epochs=1), mode="warp-speed")

    def test_unregistered_engine_lookup(self):
        with pytest.raises(CatalogError):
            PolystorePlusPlus().engine("ghost")


class TestExecutionModes:
    def test_all_modes_produce_a_model(self, mimic_accelerated_system):
        program = build_mimic_program(epochs=2)
        results = mimic_accelerated_system.compare_modes(program)
        assert set(results) == set(EXECUTION_MODES)
        for result in results.values():
            model = result.output("stay_model")
            assert model["rows"] == 60
            assert 0.0 <= model["metrics"]["accuracy"] <= 1.0

    def test_accelerated_mode_not_slower_than_strawman(self, mimic_accelerated_system):
        program = build_mimic_program(epochs=1)
        accelerated = mimic_accelerated_system.execute(program, mode="polystore++")
        strawman = mimic_accelerated_system.execute(program, mode="one_size_fits_all")
        assert accelerated.total_time_s <= strawman.total_time_s * 1.5

    def test_cpu_polystore_has_no_offloads(self, mimic_cpu_system):
        result = mimic_cpu_system.execute(build_mimic_program(epochs=1),
                                          mode="cpu_polystore")
        assert result.report.offloaded_tasks == 0
        assert result.compilation.offloaded_operators == 0

    def test_migration_accounting_present(self, mimic_accelerated_system):
        result = mimic_accelerated_system.execute(build_mimic_program(epochs=1))
        assert result.report.migration_bytes > 0
        assert result.report.migration_time_s > 0
        summary = result.summary()
        assert summary["mode"] == "polystore++"
        assert summary["compilation"]["nodes"] == len(result.compilation.graph)

    def test_single_store_query_program(self, mimic_cpu_system):
        result = mimic_cpu_system.execute(build_admission_history_program(5),
                                          mode="cpu_polystore")
        history = result.output("history")
        assert all(row["pid"] == 5 for row in history.to_dicts())


class TestBaselines:
    def test_build_accelerated_polystore_registers_fleet(self, mimic_engines):
        system = build_accelerated_polystore([mimic_engines["relational"]])
        names = {a["name"] for a in system.describe()["accelerators"]}
        assert {"fpga0", "gpu0", "tpu0", "migration-asic0"} <= names

    @pytest.mark.parametrize("devices, serializer, explicit", [
        (FLEET, "migration-asic0", True), ([FPGA], "fpga0", False), ([GPU], None, False)])
    def test_devices_pick_the_migration_serializer(self, devices, serializer, explicit):
        """A bump-in-the-wire serializer is pinned; otherwise the first device
        with a ``serialize`` kernel serves, as with the old booleans."""
        system = build_accelerated_polystore([RelationalEngine("db")], devices=devices)
        config = system.describe()["config"]
        assert [a["name"] for a in system.describe()["accelerators"]] == \
            [row.name for row in devices]
        assert (config["migration_serializer"],
                config["migration_serializer_explicit"]) == (serializer, explicit)
