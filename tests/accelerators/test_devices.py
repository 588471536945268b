"""Tests for the simulated accelerator devices and the offload planner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerators import (
    CGRAAccelerator,
    FPGAAccelerator,
    GPUAccelerator,
    KernelRegistry,
    KernelSpec,
    MigrationASIC,
    Objective,
    OffloadPlanner,
    TPUAccelerator,
    WorkEstimate,
)
from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import AcceleratorError


@pytest.fixture
def fleet():
    return [FPGAAccelerator(), GPUAccelerator(), TPUAccelerator(), CGRAAccelerator(),
            MigrationASIC()]


class TestFunctionalKernels:
    def test_fpga_bitonic_sort_is_correct(self):
        fpga = FPGAAccelerator()
        values, report = fpga.offload("bitonic_sort", [5, 2, 9, 1])
        assert values == [1, 2, 5, 9]
        assert report.total_s > 0
        assert report.kernel == "bitonic_sort"

    def test_fpga_filter_and_project(self):
        fpga = FPGAAccelerator()
        rows = [(i, i * 2) for i in range(10)]  # laid out (a, b)
        kept, _ = fpga.offload("filter", rows, lambda r: r[0] >= 5)
        assert len(kept) == 5
        projected, report = fpga.offload("project", rows, [0])
        assert projected[0] == (0,)
        # Streaming tuples and positions charges what streaming dict rows and
        # names did: the spec counts rows and columns, not their Python form.
        assert fpga._kernel_project(rows, [0])[1] == KernelSpec(
            "project", bytes_in=160, bytes_out=80, flops=10, elements=10,
            pipelineable=True)
        assert (report.bytes_moved, report.transfer_s, report.compute_s) == \
            (240, 2e-08, 4.015625e-08)

    def test_offloaded_project_charge_is_unchanged(self):
        """Literals captured with the dict-row kernel (a5c0a97)."""
        from repro.catalog import Catalog
        from repro.ir.graph import IRGraph
        from repro.ir.nodes import Operator
        from repro.middleware.executor import Executor
        from repro.stores import RelationalEngine

        catalog = Catalog()
        db = RelationalEngine("db")
        schema = make_schema(("a", DataType.INT), ("b", DataType.FLOAT),
                             ("c", DataType.STRING))
        db.load_table("t", Table(schema, [(i, i * 1.5, str(i)) for i in range(10)]))
        catalog.register_engine(db)
        fpga = FPGAAccelerator()
        catalog.register_accelerator(fpga)
        graph = IRGraph("offload")
        read = graph.add(Operator("scan", {"table": "t"}, engine="db"))
        projected = graph.add(Operator("project", {"columns": ["c", "a"]},
                                       [read.op_id], "db",
                                       accelerator=fpga.profile.name))
        graph.mark_output(projected.op_id)
        outputs, report = Executor(catalog).execute(graph)
        table = outputs[projected.op_id]
        assert table.schema == schema.project(["c", "a"])
        assert table.rows[:2] == [("0", 0), ("1", 1)]
        record = report.records[-1]
        assert record.details == {"kernel": "project"}
        assert record.charged_time_s == 0.00015007364583333332
        assert fpga.reports[-1].bytes_moved == 400

    def test_gpu_gemm_matches_numpy(self):
        gpu = GPUAccelerator()
        a, b = np.random.default_rng(0).normal(size=(8, 8)), np.eye(8)
        result, _ = gpu.offload("gemm", a, b)
        assert np.allclose(result, a)

    def test_tpu_rejects_non_2d(self):
        with pytest.raises(AcceleratorError):
            TPUAccelerator().offload("gemm", np.ones(3), np.ones(3))

    def test_unknown_kernel_rejected(self):
        with pytest.raises(AcceleratorError):
            GPUAccelerator().offload("bitonic_sort", [1, 2])

    def test_migration_asic_roundtrip(self):
        asic = MigrationASIC()
        schema = make_schema(("a", DataType.INT), ("b", DataType.FLOAT))
        table = Table(schema, [(i, i * 1.5) for i in range(20)])
        payload, _ = asic.offload("serialize", table)
        restored, _ = asic.offload("deserialize", payload, schema)
        assert restored.rows == table.rows

    def test_cgra_sort_and_reduce(self):
        cgra = CGRAAccelerator()
        values, _ = cgra.offload("sort", [3.0, 1.0, 2.0])
        assert values == [1.0, 2.0, 3.0]
        total, _ = cgra.offload("reduce", np.arange(10.0))
        assert total == 45.0


class TestCostAccounting:
    def test_reports_accumulate(self):
        fpga = FPGAAccelerator()
        fpga.offload("bitonic_sort", list(range(100)))
        fpga.offload("filter", [{"a": 1}], lambda r: True)
        assert len(fpga.reports) == 2
        assert fpga.total_simulated_time() > 0
        assert fpga.total_energy() > 0
        fpga.reset_reports()
        assert fpga.reports == []

    def test_reconfiguration_charged_on_kernel_change(self):
        fpga = FPGAAccelerator()
        first = fpga.estimate(KernelSpec("bitonic_sort", 1024, 1024, 1000, 100))
        second = fpga.estimate(KernelSpec("filter", 1024, 1024, 1000, 100))
        third = fpga.estimate(KernelSpec("filter", 1024, 1024, 1000, 100))
        assert first.reconfiguration_s == 0.0
        assert second.reconfiguration_s == fpga.profile.reconfiguration_s
        assert third.reconfiguration_s == 0.0

    def test_larger_transfers_cost_more(self):
        gpu = GPUAccelerator()
        small = gpu.estimate(KernelSpec("gemm", 10_000, 10_000, 10_000, 100_000))
        large = gpu.estimate(KernelSpec("gemm", 10_000_000, 10_000_000, 10_000, 100_000))
        assert large.transfer_s > small.transfer_s

    def test_gpu_small_launch_penalty(self):
        gpu = GPUAccelerator()
        tiny = gpu.estimate(KernelSpec("gemm", 1024, 1024, 1_000_000, elements=64))
        big = gpu.estimate(KernelSpec("gemm", 1024, 1024, 1_000_000, elements=1 << 20))
        assert tiny.compute_s > big.compute_s

    def test_describe_lists_kernels(self):
        description = FPGAAccelerator().describe()
        assert "bitonic_sort" in description["kernels"]
        assert description["mode"] == "coprocessor"


class TestPlanner:
    def test_registry_candidates(self, fleet):
        registry = KernelRegistry(fleet)
        operators = registry.accelerable_operators()
        assert {"sort", "filter", "gemm", "serialize"} <= set(operators)
        assert registry.best("sort", WorkEstimate(rows=1000)) is not None
        assert registry.candidates("unknown_operator") == []

    def test_sort_offload_crossover(self, fleet):
        planner = OffloadPlanner(KernelRegistry(fleet))
        small = planner.decide("sort", WorkEstimate(rows=500))
        large = planner.decide("sort", WorkEstimate(rows=2_000_000))
        assert not small.offloaded
        assert large.offloaded
        assert large.speedup > 1.0

    def test_gemm_prefers_accelerator_for_big_matrices(self, fleet):
        planner = OffloadPlanner(KernelRegistry(fleet))
        decision = planner.decide("gemm", WorkEstimate(matrix_dims=(2048, 2048, 2048)))
        assert decision.offloaded
        assert decision.target in ("gpu0", "tpu0")

    def test_unknown_operator_stays_on_host(self, fleet):
        planner = OffloadPlanner(KernelRegistry(fleet))
        decision = planner.decide("shortest_path_xyz", WorkEstimate(rows=100))
        assert decision.target == "host"
        assert decision.accelerator_time_s is None

    def test_energy_objective_changes_scores(self, fleet):
        latency_planner = OffloadPlanner(KernelRegistry(fleet), objective=Objective.LATENCY)
        energy_planner = OffloadPlanner(KernelRegistry(fleet), objective=Objective.ENERGY)
        work = WorkEstimate(rows=200_000)
        assert latency_planner.decide("filter", work) is not None
        assert energy_planner.decide("filter", work) is not None

    def test_summary_counts(self, fleet):
        planner = OffloadPlanner(KernelRegistry(fleet))
        planner.decide("sort", WorkEstimate(rows=10))
        planner.decide("sort", WorkEstimate(rows=5_000_000))
        summary = planner.summary()
        assert summary["offloaded"] + summary["host"] == 2

    def test_accelerator_named(self, fleet):
        planner = OffloadPlanner(KernelRegistry(fleet))
        assert planner.accelerator_named("gpu0").profile.name == "gpu0"
        with pytest.raises(AcceleratorError):
            planner.accelerator_named("missing")
