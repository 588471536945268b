"""Runtime feedback: stats store, fingerprints and their consumers."""

from __future__ import annotations

import threading

import pytest

from repro.accelerators import (
    FPGA,
    Accelerator,
    KernelRegistry,
    OffloadPlanner,
    WorkEstimate,
)
from repro.compiler.annotate import annotate_graph
from repro.compiler.passes.placement import place_accelerators
from repro.ir.graph import IRGraph
from repro.ir.nodes import Operator
from repro.middleware.feedback import (
    RuntimeStats,
    baked_estimates,
    drift_ratio,
    fingerprint_graph,
    operator_fingerprint,
    plan_fingerprint,
)


def _graph() -> IRGraph:
    graph = IRGraph("g")
    scan = graph.add(Operator(kind="scan", params={"table": "orders"},
                              engine="db"))
    sort = graph.add(Operator(kind="sort", params={"by": "amount"},
                              inputs=[scan.op_id], engine="db"))
    graph.mark_output(sort.op_id)
    return graph


class TestFingerprints:
    def test_structural_identity_across_graphs(self):
        first, second = fingerprint_graph(_graph()), fingerprint_graph(_graph())
        assert sorted(first.values()) == sorted(second.values())

    def test_params_change_the_fingerprint(self):
        node = Operator(kind="scan", params={"table": "orders"}, engine="db")
        other = Operator(kind="scan", params={"table": "users"}, engine="db")
        assert operator_fingerprint(node, []) != operator_fingerprint(other, [])

    def test_annotations_do_not_change_the_fingerprint(self):
        node = Operator(kind="scan", params={"table": "orders"}, engine="db")
        bare = operator_fingerprint(node, [])
        node.estimated_rows = 12345
        node.annotations["rows_source"] = "observed"
        assert operator_fingerprint(node, []) == bare

    def test_inputs_feed_the_fingerprint(self):
        graph = _graph()
        fingerprints = fingerprint_graph(graph)
        scan_id = graph.nodes_of_kind("scan")[0].op_id
        sort_id = graph.nodes_of_kind("sort")[0].op_id
        assert fingerprints[scan_id] != fingerprints[sort_id]

    def test_plan_fingerprint_tracks_placement_not_estimates(self):
        graph = _graph()
        fingerprint_graph(graph)
        base = plan_fingerprint(graph)
        graph.nodes_of_kind("sort")[0].estimated_rows = 10**6
        assert plan_fingerprint(graph) == base  # estimates are not physical
        graph.nodes_of_kind("sort")[0].accelerator = "fpga0"
        assert plan_fingerprint(graph) != base  # placement is


class TestRuntimeStats:
    def test_first_sample_taken_verbatim_then_smoothed(self):
        stats = RuntimeStats(smoothing=0.5)
        stats.record("fp", kind="scan", target="db", time_s=1.0, rows_out=100)
        assert stats.observed_rows("fp") == 100
        stats.record("fp", kind="scan", target="db", time_s=3.0, rows_out=300)
        observed = stats.observed("fp")
        assert observed.rows_out == pytest.approx(200.0)
        assert observed.time_for("db") == pytest.approx(2.0)
        assert observed.samples == 2

    def test_selectivity_from_rows_in(self):
        stats = RuntimeStats()
        stats.record("fp", kind="filter", target="db", time_s=0.1,
                     rows_out=90, rows_in=100)
        assert stats.observed("fp").selectivity == pytest.approx(0.9)
        assert stats.observed("leaf") is None

    def test_actionable_floor_suppresses_tiny_observations(self):
        stats = RuntimeStats(min_actionable_rows=512)
        stats.record("small", kind="scan", target="db", time_s=0.1, rows_out=40)
        stats.record("big", kind="scan", target="db", time_s=0.1, rows_out=4000)
        assert stats.observed_rows("small") == 40
        assert stats.actionable_rows("small") is None
        assert stats.actionable_rows("big") == 4000

    def test_per_target_times(self):
        stats = RuntimeStats()
        stats.record("fp", kind="sort", target="db", time_s=0.5, rows_out=10)
        stats.record("fp", kind="sort", target="fpga0", time_s=0.001, rows_out=10)
        assert stats.observed_time("fp", "db") == pytest.approx(0.5)
        assert stats.observed_time("fp", "fpga0") == pytest.approx(0.001)
        assert stats.observed_time("fp", "gpu0") is None

    def test_thread_safety_under_concurrent_records(self):
        stats = RuntimeStats()

        def hammer(tag: str):
            for i in range(200):
                stats.record(f"fp-{tag}-{i % 5}", kind="scan", target="db",
                             time_s=0.001, rows_out=i)

        threads = [threading.Thread(target=hammer, args=(str(t),))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.stats()["recorded"] == 800
        assert len(stats) == 20

    def test_clear_and_invalid_smoothing(self):
        stats = RuntimeStats()
        stats.record("fp", kind="scan", target="db", time_s=0.1, rows_out=5)
        stats.clear()
        assert stats.observed("fp") is None
        with pytest.raises(ValueError):
            RuntimeStats(smoothing=0.0)

    def test_drift_ratio_is_symmetric(self):
        assert drift_ratio(100, 400) == pytest.approx(4.0)
        assert drift_ratio(400, 100) == pytest.approx(4.0)
        assert drift_ratio(0, 0) == pytest.approx(1.0)


class TestAnnotateConsumesObservations:
    def test_observed_rows_override_the_model(self):
        stats = RuntimeStats(min_actionable_rows=1)
        graph = _graph()
        fingerprints = fingerprint_graph(graph)
        scan_id = graph.nodes_of_kind("scan")[0].op_id
        stats.record(fingerprints[scan_id], kind="scan", target="db",
                     time_s=0.01, rows_out=7777)
        annotate_graph(graph, None, stats)
        scan = graph.nodes_of_kind("scan")[0]
        assert scan.estimated_rows == 7777
        assert scan.annotations["rows_source"] == "observed"
        assert scan.annotations["estimated_rows_model"] == 1000  # the default
        sort = graph.nodes_of_kind("sort")[0]
        assert sort.annotations["rows_source"] == "model"

    def test_baked_estimates_capture_the_compiled_plan(self):
        stats = RuntimeStats()
        graph = _graph()
        annotate_graph(graph, None, stats)
        baked = baked_estimates(graph)
        assert len(baked) == 2
        assert all(rows > 0 for rows in baked.values())


class TestPlannerConsumesObservedHostTime:
    def test_observed_host_time_flips_the_decision(self):
        planner = OffloadPlanner(KernelRegistry([Accelerator(FPGA)]))
        work = WorkEstimate(rows=20_000, row_bytes=32)
        model = planner.decide("sort", work)
        assert not model.offloaded  # roofline host model says host wins
        observed = planner.decide("sort", work, observed_host_time_s=0.25)
        assert observed.offloaded
        assert observed.host_time_source == "observed"
        assert observed.host_time_s == pytest.approx(0.25)


class TestPlacementScalesObservedHostTime:
    """An observed host time is scaled linearly to the row estimate placed at."""

    @staticmethod
    def _place(stats: RuntimeStats, rows: int):
        graph = _graph()
        fingerprints = fingerprint_graph(graph)
        for node in graph.nodes():
            node.estimated_rows = rows
        sort = graph.nodes_of_kind("sort")[0]
        stats.record(fingerprints[sort.op_id], kind="sort", target="db",
                     time_s=0.1, rows_out=1000, rows_in=1000)
        place_accelerators(graph, OffloadPlanner(KernelRegistry([Accelerator(FPGA)])),
                           stats)
        return sort.annotations

    def test_observed_time_scales_with_estimate(self):
        at_observed = self._place(RuntimeStats(smoothing=1.0), 1000)
        doubled = self._place(RuntimeStats(smoothing=1.0), 2000)
        assert at_observed["placement_host_source"] == "observed"
        assert at_observed["placement_host_time_s"] == pytest.approx(0.1)
        assert doubled["placement_host_source"] == "observed"
        assert doubled["placement_host_time_s"] == pytest.approx(0.2)

    def test_below_the_actionable_floor_the_model_decides(self):
        annotations = self._place(RuntimeStats(min_actionable_rows=5000), 2000)
        assert annotations["placement_host_source"] == "model"


class TestStatsRetention:
    def test_least_recently_touched_entries_evict_past_the_cap(self):
        stats = RuntimeStats(max_operators=3)
        for name in ("a", "b", "c"):
            stats.record(name, kind="scan", target="db", time_s=0.1, rows_out=10)
        stats.record("a", kind="scan", target="db", time_s=0.1, rows_out=10)
        stats.record("d", kind="scan", target="db", time_s=0.1, rows_out=10)
        assert stats.observed("b") is None  # oldest untouched entry evicted
        assert stats.observed("a") is not None
        assert stats.observed("d") is not None
        assert stats.stats()["evicted"] == 1
