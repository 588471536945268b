"""Tests for the simulated accelerator devices and the offload planner."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.accelerators import (
    CGRA,
    FPGA,
    GPU,
    MIGRATION_ASIC,
    TPU,
    Accelerator,
    DeviceProfile,
    KernelRegistry,
    KernelSpec,
    Objective,
    OffloadPlanner,
    WorkEstimate,
)
from repro.accelerators.kernels import DEFAULT_MAPPINGS, kernel_mapping
from repro.catalog import Catalog
from repro.core.baselines import build_accelerated_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import AcceleratorError
from repro.ir.graph import IRGraph
from repro.ir.kinds import KINDS
from repro.ir.nodes import Operator
from repro.middleware.executor import Executor
from repro.middleware.migration import DataMigrator
from repro.stores import ArrayEngine, MLEngine, RelationalEngine, TextEngine, TimeseriesEngine
from repro.stores.relational import compare
from repro.workloads import build_mimic_program, generate_mimic, load_mimic


@pytest.fixture
def fleet():
    return [Accelerator(row) for row in (FPGA, GPU, TPU, CGRA, MIGRATION_ASIC)]


def _deployment(devices):
    """Fresh engines, identically loaded, with ``devices`` attached."""
    catalog = Catalog()
    db = RelationalEngine("db")
    db.load_table("t", TABLE)
    series = TimeseriesEngine("ts")
    series.append_many("hr", [(float(i), float(i % 11)) for i in range(90)])
    for engine in (db, series, MLEngine("ml"), ArrayEngine("arr")):
        catalog.register_engine(engine)
    for device in devices:
        catalog.register_accelerator(device)
    executor = Executor(catalog)
    # ``predict`` scores a model that exists: train it on the host first.
    _run(executor, "train", None)
    return executor


def _run(executor, operator, device):
    """Run the one IR kind ``operator`` names, placed on ``device`` (or the host)."""
    kind, engine, params, inputs = SHAPES[operator]
    graph = IRGraph(operator)
    leaves = [graph.add(leaf()).op_id for leaf in inputs]
    node = graph.add(Operator(kind, params, leaves, engine, accelerator=device))
    graph.mark_output(node.op_id)
    outputs, report = executor.execute(graph)
    return outputs[node.op_id], report.records[-1]


TABLE = Table(make_schema(("a", DataType.INT), ("b", DataType.FLOAT), ("c", DataType.STRING)),
              [(i, (i * 7) % 13 * 1.5, str(i)) for i in range(10)])
FEATURES = Table.from_dicts([
    {"pid": i, "x1": float(i % 7), "x2": float(i % 3), "long_stay": i % 2}
    for i in range(120)])


def _scan():
    return Operator("scan", {"table": "t"}, engine="db")


def _features():
    return Operator("python_udf", {"fn": lambda: FEATURES})


def _array(*shape):
    return lambda: Operator("python_udf", {
        "fn": lambda: np.arange(float(np.prod(shape))).reshape(shape)})


#: kernel-table operator -> (IR kind, engine, params, leaf builders).
SHAPES = {
    "sort": ("sort", "db", {"by": "b", "descending": True}, [_scan]),
    "filter": ("filter", "db", {"predicate": compare("a", ">=", 4)}, [_scan]),
    "project": ("project", "db", {"columns": ["c", "a"]}, [_scan]),
    "window_aggregate": ("window_aggregate", "ts", {"series": "hr", "window_s": 10.0}, []),
    "gemm": ("matmul", "arr", {}, [_array(6, 4), _array(4, 5)]),
    "gemv": ("gemv", "arr", {}, [_array(6, 4), _array(4, 1)]),
    "train": ("train", "ml", {"model_name": "m", "label_column": "long_stay",
                              "epochs": 3}, [_features]),
    "predict": ("predict", "ml", {"model_name": "m"}, [_features]),
}

DEVICES = [FPGA, GPU, TPU, MIGRATION_ASIC, CGRA]


def _ids(value):
    return value.name if isinstance(value, DeviceProfile) else None


def _reconfigurable(device):
    """``device`` with a nonzero reconfiguration time, so the kernel it holds shows
    in every estimate (GPUs, TPUs and ASICs otherwise reconfigure for free)."""
    device.profile = replace(device.profile, reconfiguration_s=1.0)
    return device


def _loaded(device, kernel):
    """Whether ``device`` would run ``kernel`` next without reconfiguring."""
    return device.estimate(KernelSpec(kernel, 1024)).reconfiguration_s == 0.0


def _same(left, right):
    if isinstance(left, Table):
        return left.schema == right.schema and left.rows == right.rows
    if isinstance(left, np.ndarray):
        return np.array_equal(left, right)
    return left == right


class TestOneOffloadPath:
    """Every operator runs on its engine; a placed one is charged by its device."""

    @pytest.mark.parametrize("row, operator", [
        (row, operator) for row in DEVICES for operator in SHAPES
        if any(m.kernel in row.kernels for m in DEFAULT_MAPPINGS[operator])], ids=_ids)
    def test_a_placed_node_returns_host_rows_and_is_charged(self, row, operator):
        """Fails at the parent: (cgra0, sort) ran free with ``{"fallback": True}``."""
        device = Accelerator(row)
        expected, host = _run(_deployment([]), operator, None)
        value, record = _run(_deployment([device]), operator, device.profile.name)
        assert _same(value, expected)
        assert not host.offloaded and host.accelerator is None
        assert record.offloaded and record.accelerator == device.profile.name
        assert record.charged_time_s > 0
        assert record.details["kernel"] == kernel_mapping(device, operator).kernel
        assert device.supports(record.details["kernel"])

    @pytest.mark.parametrize("row, operator", [
        (row, operator) for row in DEVICES for operator in SHAPES
        if any(m.kernel in row.kernels for m in DEFAULT_MAPPINGS[operator])], ids=_ids)
    def test_an_offloaded_run_leaves_its_kernel_loaded(self, row, operator):
        """The executor's charge is a real run: the device now holds that kernel."""
        device = _reconfigurable(Accelerator(row))
        _, record = _run(_deployment([device]), operator, device.profile.name)
        kernel = record.details["kernel"]
        assert _loaded(device, kernel)
        assert not any(_loaded(device, other) for other in device.profile.kernels - {kernel})

    def test_the_table_covers_every_offloadable_kind(self):
        # ``migrate`` is accelerated by the migrator (below), not by placement.
        assert {SHAPES[operator][0] for operator in SHAPES} == \
            {name for name, row in KINDS.items() if row.kernel} - {"migrate"}
        assert set(DEFAULT_MAPPINGS) - set(SHAPES) == {"serialize", "deserialize"}

    @pytest.mark.parametrize("row", [FPGA, MIGRATION_ASIC], ids=_ids)
    def test_an_accelerated_migration_is_charged_by_its_serializer(self, row):
        device = Accelerator(row)
        received, report = DataMigrator(serializer_accelerator=device).migrate(
            TABLE, strategy="accelerated")
        assert received.schema == TABLE.schema and received.rows == TABLE.rows
        assert report.serialization_offloaded
        assert report.serialize_s >= device.profile.dispatch_overhead_s
        assert report.deserialize_s > 0

    @pytest.mark.parametrize("row", [FPGA, MIGRATION_ASIC], ids=_ids)
    def test_an_accelerated_migration_leaves_its_last_kernel_loaded(self, row):
        device = _reconfigurable(Accelerator(row))
        DataMigrator(serializer_accelerator=device).migrate(TABLE, strategy="accelerated")
        # The ASIC also parses the receive side; the FPGA only serializes.
        last = "deserialize" if device.supports("deserialize") else "serialize"
        assert _loaded(device, last)
        assert not any(_loaded(device, other) for other in device.profile.kernels - {last})

    @pytest.mark.parametrize("row, operator", [
        (GPU, "sort"), (TPU, "filter"), (MIGRATION_ASIC, "train"), (FPGA, "gemm")], ids=_ids)
    def test_a_device_without_a_kernel_for_the_kind_is_an_error(self, row, operator):
        device = Accelerator(row)
        executor = _deployment([device])
        trained = executor.catalog.engine("ml").ops.counter.flops
        with pytest.raises(AcceleratorError, match="has no kernel for"):
            _run(executor, operator, device.profile.name)
        # Refused before the engine ran.
        assert executor.catalog.engine("ml").ops.counter.flops == trained

    def test_a_kind_no_kernel_serves_is_an_error(self):
        fpga = Accelerator(FPGA)
        graph = IRGraph("unplaceable")
        read = graph.add(_scan())
        node = graph.add(Operator("limit", {"n": 3}, [read.op_id], "db",
                                  accelerator=fpga.profile.name))
        graph.mark_output(node.op_id)
        with pytest.raises(AcceleratorError):
            _deployment([fpga]).execute(graph)

    def test_charges_come_from_the_observed_work(self):
        """Re-recorded with this change: one spec function per kernel, fed the
        rows and bytes the engine was seen to read and write.

        ``TABLE`` is 10 rows of 40 bytes; the FPGA moves 12 GB/s, retires 256
        operations a 250 MHz clock behind a 10-stage pipeline (16 stages for
        a 10-element sorting network), dispatches in 150 us and takes 2 s to
        load a different kernel.
        """
        fpga = Accelerator(FPGA)
        executor = _deployment([fpga])
        records = {operator: _run(executor, operator, fpga.profile.name)[1]
                   for operator in ("project", "sort", "filter")}
        assert {operator: record.details for operator, record in records.items()} == {
            "project": {"kernel": "project", "flops": 10},
            # 10/2 * log2(10)^2 compare-exchanges
            "sort": {"kernel": "bitonic_sort", "flops": 55},
            "filter": {"kernel": "filter", "flops": 10},
        }
        charged = {operator: record.charged_time_s for operator, record in records.items()}
        assert charged == pytest.approx({
            # 400 B in, 320 B out (two columns of 16 B)
            "project": 150e-6 + 720 / 12e9 + (10 / 256 + 10) / 250e6,
            "sort": 2.0 + 150e-6 + 800 / 12e9 + (55 / 256 + 16) / 250e6,
            # six of the ten rows survive
            "filter": 2.0 + 150e-6 + 640 / 12e9 + (10 / 256 + 10) / 250e6,
        }, abs=1e-12)
        assert charged["project"] == pytest.approx(0.00015010015625, abs=1e-12)

    def test_matrix_and_migration_charges_equal_the_parent(self):
        """Pinned: what ``accelerators.charged_ms`` and
        ``middleware.migration.charged_ms`` report on ``mimic_pipeline``.

        Recipe: with ``PYTHONPATH`` on be1fbd7's ``src`` (``device.offload``
        still behind the migrator, ``_charge_ml_offload`` behind the
        executor), run this body — ``_deployment``, ``_run`` and ``SHAPES``
        use nothing newer — and print the values with ``repr``.

        ``predict`` is re-pinned since: it was charged the ML engine's
        cumulative count (train's 322 920 flops plus its own), and is now
        charged the 31 320 flops and 128 448 bytes it adds.  On the TPU that
        is 50 us dispatch + 128 448 B / 10 GB/s transfer + compute, which is
        memory-bound on the roofline (128 448 B / 600 GB/s) and divided by the
        systolic fill 15 660 / 256² for the 31 320 / 2 elements.
        """
        executor = _deployment([Accelerator(GPU), Accelerator(TPU)])
        executor.catalog.engine("ml").ops.counter.reset()
        _, train = _run(executor, "train", "gpu0")
        _, predict = _run(executor, "predict", "tpu0")
        assert train.charged_time_s == pytest.approx(0.00010259877333333332, abs=1e-12)
        assert predict.charged_time_s == pytest.approx(
            50e-6 + 128_448 / 10e9 + 128_448 / 600e9 / (15_660 / 256 ** 2), abs=1e-12)
        assert predict.charged_time_s == pytest.approx(6.374070976245211e-05, abs=1e-12)
        assert (train.details["flops"], predict.details["flops"]) == (322920, 31320)

        table = Table(TABLE.schema, [(i, i * 1.5, str(i)) for i in range(200)])
        received, asic = DataMigrator(serializer_accelerator=Accelerator(MIGRATION_ASIC)).migrate(
            table, strategy="accelerated")
        assert received.rows == table.rows and asic.payload_bytes == 5094
        assert asic.serialize_s == pytest.approx(1.0523760000000001e-05, abs=1e-12)
        assert asic.deserialize_s == pytest.approx(1.0523760000000001e-05, abs=1e-12)
        assert asic.total_s == pytest.approx(0.00011469896000000002, abs=1e-12)
        # The FPGA offloads the send side only; the receive side is wall time.
        received, fpga = DataMigrator(serializer_accelerator=Accelerator(FPGA)).migrate(
            table, strategy="accelerated")
        assert received.rows == table.rows
        assert fpga.serialize_s == pytest.approx(0.00015114054166666665, abs=1e-12)

    def test_each_offloaded_train_is_charged_its_own_flops(self):
        """The ML engine's counter only grows (``_deployment`` already trained
        once on the host): each run is charged what it adds, not the total."""
        executor = _deployment([Accelerator(GPU)])
        records = [_run(executor, "train", "gpu0")[1] for _ in range(3)]
        assert [record.details["flops"] for record in records] == [322920] * 3
        assert len({record.charged_time_s for record in records}) == 1

    def test_the_figure_2_train_is_charged_the_flops_it_was_at_e046d2c(self):
        """Pinned: the ``train`` of ``build_mimic_program(epochs=3)`` over 200
        generated patients, as measured before the models stopped counting
        per call.  Flops follow from the shapes alone, so this number holds
        on any machine."""
        engines = [RelationalEngine("clinical-db"), TimeseriesEngine("monitors"),
                   TextEngine("notes-db"), MLEngine("dnn-engine")]
        load_mimic(generate_mimic(200, seed=7), relational=engines[0],
                   timeseries=engines[1], text=engines[2])
        system = build_accelerated_polystore(engines)
        records = system.execute(build_mimic_program(epochs=3)).report.records
        train, = [record for record in records if record.kind == "train"]
        assert train.offloaded and train.details["flops"] == 4_323_800


class TestCostAccounting:
    def test_reconfiguration_charged_on_kernel_change(self):
        fpga = Accelerator(FPGA)
        first = fpga.charge(KernelSpec("bitonic_sort", 1024, 1024, 1000, 100))
        second = fpga.charge(KernelSpec("filter", 1024, 1024, 1000, 100))
        third = fpga.charge(KernelSpec("filter", 1024, 1024, 1000, 100))
        assert first.reconfiguration_s == 0.0
        assert second.reconfiguration_s == fpga.profile.reconfiguration_s
        assert third.reconfiguration_s == 0.0

    def test_pricing_another_kernel_does_not_reconfigure_the_device(self):
        """A planner pricing ``filter`` between two sorts leaves the sort loaded."""
        fpga = Accelerator(FPGA)
        sort = KernelSpec("bitonic_sort", 1024, 1024, 1000, 100)
        fpga.charge(sort)
        priced = fpga.estimate(KernelSpec("filter", 1024, 1024, 1000, 100))
        assert priced.reconfiguration_s == fpga.profile.reconfiguration_s
        assert fpga.charge(sort).reconfiguration_s == 0.0
        assert fpga.estimate(sort) == fpga.charge(sort)

    @pytest.mark.parametrize("row", DEVICES, ids=_ids)
    def test_estimating_every_other_kernel_leaves_the_loaded_one(self, row):
        device = _reconfigurable(Accelerator(row))
        first, *others = sorted(device.profile.kernels)
        device.charge(KernelSpec(first, 1024))
        for kernel in others:
            assert device.estimate(KernelSpec(kernel, 1024)).reconfiguration_s == 1.0
        assert _loaded(device, first)
        assert device.charge(KernelSpec(others[0], 1024)).reconfiguration_s == 1.0
        assert not _loaded(device, first)

    def test_larger_transfers_cost_more(self):
        gpu = Accelerator(GPU)
        small = gpu.estimate(KernelSpec("gemm", 10_000, 10_000, 10_000, 100_000))
        large = gpu.estimate(KernelSpec("gemm", 10_000_000, 10_000_000, 10_000, 100_000))
        assert large.transfer_s > small.transfer_s

    def test_gpu_small_launch_penalty(self):
        gpu = Accelerator(GPU)
        tiny = gpu.estimate(KernelSpec("gemm", 1024, 1024, 1_000_000, elements=64))
        big = gpu.estimate(KernelSpec("gemm", 1024, 1024, 1_000_000, elements=1 << 20))
        assert tiny.compute_s > big.compute_s

    def test_describe_lists_kernels(self):
        description = Accelerator(FPGA).describe()
        assert "bitonic_sort" in description["kernels"]
        assert description["mode"] == "coprocessor"


class TestPlanner:
    def test_registry_candidates(self, fleet):
        registry = KernelRegistry(fleet)
        operators = registry.accelerable_operators()
        assert {"sort", "filter", "gemm", "serialize"} <= set(operators)
        assert {device.profile.name for device, _ in registry.candidates("sort")} == \
            {"fpga0", "cgra0"}
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

    @pytest.mark.parametrize("operator", sorted(DEFAULT_MAPPINGS))
    def test_deciding_leaves_every_device_holding_its_kernel(self, fleet, operator):
        """Pricing a kind across the fleet loads no kernel on any device."""
        held = {}
        for device in map(_reconfigurable, fleet):
            held[device.profile.name] = min(device.profile.kernels)
            device.charge(KernelSpec(held[device.profile.name], 1024))
        planner = OffloadPlanner(KernelRegistry(fleet))
        for rows in (500, 2_000_000):
            planner.decide(operator, WorkEstimate(rows=rows, matrix_dims=(512, 512, 512)))
        for device in fleet:
            assert _loaded(device, held[device.profile.name])
            assert not any(_loaded(device, other)
                           for other in device.profile.kernels - {held[device.profile.name]})

    def test_unknown_operator_stays_on_host(self, fleet):
        planner = OffloadPlanner(KernelRegistry(fleet))
        decision = planner.decide("shortest_path_xyz", WorkEstimate(rows=100))
        assert decision.target == "host"
        assert decision.accelerator_time_s is None

    def test_energy_objective_changes_scores(self):
        """A 64³ GEMM runs faster on the GPU than on the host (27 us against
        66 us) but costs it more energy (6.6 mJ at 250 W against 6.2 mJ at 95 W)."""
        work = WorkEstimate(matrix_dims=(64, 64, 64))
        targets = {objective: OffloadPlanner(KernelRegistry([Accelerator(GPU)]),
                                             objective=objective).decide("gemm", work).target
                   for objective in (Objective.LATENCY, Objective.ENERGY)}
        assert targets == {Objective.LATENCY: "gpu0", Objective.ENERGY: "host"}

    @pytest.mark.parametrize("objective, target", [
        (Objective.LATENCY, "gpu0"), (Objective.ENERGY, "cgra0"),
        (Objective.ENERGY_DELAY_PRODUCT, "cgra0")])
    def test_every_device_is_scored_under_the_objective(self, fleet, objective, target):
        """Fails at the parent, which scored only the fastest device: a 512³ GEMM
        takes 0.43 ms on the GPU (0.108 J) and 0.51 ms on the CGRA (0.0231 J), so
        ENERGY and EDP picked ``gpu0`` as LATENCY does."""
        planner = OffloadPlanner(KernelRegistry(fleet), objective=objective)
        decision = planner.decide("gemm", WorkEstimate(matrix_dims=(512, 512, 512)))
        assert decision.target == target
        device = planner.accelerator_named(target)
        assert decision.accelerator_energy_j == \
            device.profile.power_w * decision.accelerator_time_s

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
