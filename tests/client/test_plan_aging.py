"""Plan aging: drifted cardinalities re-optimize, stable workloads keep pins."""

from __future__ import annotations

from repro import DataflowProgram, col, dataset
from repro.accelerators import FPGA
from repro.compiler import CompilerOptions
from repro.core import build_accelerated_polystore, build_cpu_polystore
from repro.core.system import SystemConfig
from repro.datamodel import DataType, Table, make_schema
from repro.stores import RelationalEngine

_SCHEMA = make_schema(("event_id", DataType.INT), ("value", DataType.FLOAT))


def _rows(n: int, offset: int = 0) -> list[tuple]:
    return [(offset + i, float((offset + i) * 31 % 1009)) for i in range(n)]


def _engine(n: int = 300) -> RelationalEngine:
    engine = RelationalEngine("eventsdb")
    engine.load_table("events", Table(_SCHEMA, _rows(n)))
    return engine


def _sorted_program() -> DataflowProgram:
    ranked = dataset("eventsdb").table("events").sort("value", descending=True)
    program = DataflowProgram("ranked-events")
    program.output("ranked", ranked)
    return program


class TestGrowthTriggersReoptimization:
    def test_grown_table_gets_a_new_plan(self):
        engine = _engine(300)
        system = build_accelerated_polystore([engine], devices=[FPGA])
        session = system.session(name="aging")
        prepared = session.prepare(_sorted_program())

        first = prepared.run(reuse_scans=False)
        original_plan = prepared.compilation.plan_fingerprint
        assert not first.report.reoptimized
        assert first.report.offloaded_tasks == 0  # 300 rows: host sort

        # The table grows 100x after the plan was compiled and observed.
        engine.insert("events", _rows(30_000, offset=300))
        observing = prepared.run(reuse_scans=False)
        assert not observing.report.reoptimized  # this run records the drift

        reoptimized = prepared.run(reuse_scans=False)
        assert reoptimized.report.reoptimized
        assert reoptimized.report.summary()["reoptimized"] is True
        assert prepared.reoptimizations == 1
        # A new physical plan was recorded: the grown sort moved to the FPGA.
        assert prepared.compilation.plan_fingerprint != original_plan
        assert reoptimized.report.offloaded_tasks >= 1

        # The new plan is stable: no further churn on subsequent runs.
        settled = prepared.run(reuse_scans=False)
        assert not settled.report.reoptimized
        assert prepared.reoptimizations == 1
        session.close()

    def test_stable_workload_keeps_plan_and_pins(self):
        system = build_accelerated_polystore([_engine(2000)], devices=[FPGA])
        session = system.session(name="stable")
        prepared = session.prepare(_sorted_program())
        prepared.run()
        original_plan = prepared.compilation.plan_fingerprint
        for _ in range(3):
            result = prepared.run()
            assert not result.report.reoptimized
            assert result.report.cached_tasks > 0  # pinned scans replayed
        assert prepared.reoptimizations == 0
        assert prepared.compilation.plan_fingerprint == original_plan
        session.close()


class TestHarmlessDrift:
    def test_estimate_drift_without_plan_change_keeps_pins(self):
        # The equality predicate is estimated at 10% selectivity but actually
        # keeps ~97% of the rows — drift well past the factor.  With no
        # accelerators attached the re-compiled plan is physically identical,
        # so the entry (and its pinned scans) must survive.
        engine = RelationalEngine("flowsdb")
        schema = make_schema(("flow_id", DataType.INT), ("state", DataType.STRING))
        engine.load_table("flows", Table(schema, [
            (i, "open" if i % 32 else "closed") for i in range(4000)
        ]))
        system = build_cpu_polystore([engine])
        session = system.session(name="harmless")

        flows = (dataset("flowsdb").table("flows")
                 .filter(col("state").eq("open"))
                 .aggregate([], n=("count", None)))
        program = DataflowProgram("open-flows")
        program.output("summary", flows)

        # Unfused, so the filtered scan reports its rows (a scan that folds
        # the count into its page walk returns one, which is no drift).
        prepared = session.prepare(program, options=CompilerOptions(fusion=False))
        prepared.run()
        original_plan = prepared.compilation.plan_fingerprint
        second = prepared.run()  # drift detected, re-compiled, plan unchanged
        third = prepared.run()
        assert not second.report.reoptimized and not third.report.reoptimized
        assert prepared.reoptimizations == 0
        assert prepared.compilation.plan_fingerprint == original_plan
        assert third.report.cached_tasks > 0  # pins survived the re-bake
        # The re-bake refreshed the baked estimates from observations.
        assert third.output("summary").to_dicts()[0]["n"] == \
            sum(1 for i in range(4000) if i % 32)
        session.close()


class TestAgingKnobs:
    def test_disabled_feedback_never_reoptimizes(self):
        engine = _engine(300)
        system = build_accelerated_polystore(
            [engine], config=SystemConfig(adaptive_feedback=False),
            devices=[FPGA])
        session = system.session(name="frozen")
        prepared = session.prepare(_sorted_program())
        prepared.run(reuse_scans=False)
        engine.insert("events", _rows(30_000, offset=300))
        for _ in range(3):
            result = prepared.run(reuse_scans=False)
            assert not result.report.reoptimized
        assert prepared.reoptimizations == 0
        assert system.feedback_stats is None
        session.close()

    def test_drift_factor_none_disables_aging(self):
        engine = _engine(300)
        system = build_accelerated_polystore(
            [engine], config=SystemConfig(reoptimize_drift_factor=None),
            devices=[FPGA])
        session = system.session(name="no-aging")
        prepared = session.prepare(_sorted_program())
        prepared.run(reuse_scans=False)
        engine.insert("events", _rows(30_000, offset=300))
        prepared.run(reuse_scans=False)
        result = prepared.run(reuse_scans=False)
        assert not result.report.reoptimized
        assert prepared.reoptimizations == 0
        # Stats are still collected (feedback on) — only aging is off.
        assert system.feedback_stats is not None
        assert len(system.feedback_stats) > 0
        session.close()
