"""Session API: prepared re-execution, scan snapshots, params, concurrency."""

from __future__ import annotations

import re

import pytest

from repro import DataflowProgram, Dataset, Param, col, dataset
from repro.client import PreparedProgram
from repro.core import build_accelerated_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import CompilationError, ExecutionError
from repro.stores import MLEngine, RelationalEngine, TimeseriesEngine


@pytest.fixture
def deployment():
    relational = RelationalEngine("ordersdb")
    schema = make_schema(("order_id", DataType.INT), ("customer_id", DataType.INT),
                         ("amount", DataType.FLOAT), ("returned", DataType.INT))
    relational.load_table("orders", Table(schema, [
        (i, i % 20, (i % 13) * 2.0, int(i % 13 > 8)) for i in range(400)
    ]))
    timeseries = TimeseriesEngine("telemetry")
    for customer in range(20):
        timeseries.append_many(f"sessions/{customer}",
                               [(float(day), float((customer + day) % 7))
                                for day in range(12)])
    ml = MLEngine("ml")
    return build_accelerated_polystore([relational, timeseries, ml])


def _features(spend_sql: str, end=None) -> Dataset:
    spend = dataset("ordersdb").sql(spend_sql)
    sessions = dataset("telemetry").timeseries("sessions/", end=end)
    return spend.join(sessions, left_key="customer_id", right_key="pid")


def query_program(end=None) -> DataflowProgram:
    program = DataflowProgram("spend-features")
    program.output("features", _features(
        "SELECT customer_id, sum(amount) AS total_spend, count(*) AS n "
        "FROM orders GROUP BY customer_id", end))
    return program


def train_program() -> DataflowProgram:
    # A training head keeps the ML work un-pinnable.
    features = _features(
        "SELECT customer_id, sum(amount) AS total_spend, "
        "max(returned) AS any_return FROM orders GROUP BY customer_id")
    trained = DataflowProgram("spend-model")
    trained.output("model", features.train(
        label_column="any_return", model_name="model", epochs=2, engine="ml"))
    return trained


class TestPreparedPrograms:
    def test_prepare_freezes_and_blocks_mutation(self, deployment):
        session = deployment.session()
        program = query_program()
        prepared = session.prepare(program)
        assert isinstance(prepared, PreparedProgram)
        assert program.frozen
        with pytest.raises(CompilationError):
            program.output("late", dataset("ordersdb").sql("SELECT * FROM orders"))

    def test_prepared_outputs_match_one_shot(self, deployment):
        session = deployment.session()
        prepared = session.prepare(query_program())
        expected = deployment.execute(query_program()).output("features").to_dicts()
        for _ in range(3):
            got = prepared.run().output("features").to_dicts()
            assert got == expected

    def test_second_run_replays_pinned_scans(self, deployment):
        session = deployment.session()
        prepared = session.prepare(query_program())
        first = prepared.run()
        second = prepared.run()
        assert first.report.cached_tasks == 0
        assert second.report.cached_tasks == len(second.report.records)
        assert second.report.elapsed_wall_s < first.report.elapsed_wall_s

    def test_engine_write_invalidates_snapshot(self, deployment):
        session = deployment.session()
        prepared = session.prepare(query_program())
        baseline = prepared.run().output("features").to_dicts()
        assert prepared.run().report.cached_tasks > 0
        deployment.engine("ordersdb").insert("orders", [(1000, 3, 99.0, 0)])
        refreshed = prepared.run()
        # Invalidation is per-subtree: everything reading ordersdb re-runs,
        # while the untouched timeseries summary — and the migration that
        # ships it, a pure function of its input — stays pinned.
        fresh_kinds = {r.kind for r in refreshed.report.records if not r.cached}
        cached_kinds = {r.kind for r in refreshed.report.records if r.cached}
        assert "join" in fresh_kinds
        assert cached_kinds <= {"ts_summarize", "migrate"}
        changed = refreshed.output("features").to_dicts()
        assert changed != baseline

    def test_refresh_forces_engine_reads(self, deployment):
        session = deployment.session()
        prepared = session.prepare(query_program())
        prepared.run()
        refreshed = prepared.run(refresh=True)
        assert refreshed.report.cached_tasks == 0

    def test_training_head_is_never_pinned(self, deployment):
        session = deployment.session()
        prepared = session.prepare(train_program())
        prepared.run()
        second = prepared.run()
        replayed = {r.op_id for r in second.report.records if r.cached}
        fresh = {r.kind for r in second.report.records if not r.cached}
        assert "train" in fresh
        assert replayed  # the query subtree was still served from pins

    def test_charged_time_survives_replay(self, deployment):
        """Replayed runs keep charged-time accounting comparable across modes."""
        session = deployment.session()
        prepared = session.prepare(query_program())
        first = prepared.run()
        second = prepared.run()
        assert second.total_time_s == pytest.approx(first.total_time_s, rel=0.6)
        assert second.report.wall_time_s < first.report.wall_time_s


class TestReviewRegressions:
    def test_caller_mutation_cannot_poison_pins(self, deployment):
        session = deployment.session()
        prepared = session.prepare(query_program())
        prepared.run()
        table = prepared.run().output("features")
        expected = len(table)
        table.rows.pop()  # callers own their results; pins must be isolated
        assert len(prepared.run().output("features")) == expected

    def test_in_place_params_mutation_recompiles(self, deployment):
        session = deployment.session()
        wanted = dataset("ordersdb").table("orders").filter(col("customer_id") < 20)
        program = DataflowProgram("spend")
        program.output("features", wanted.aggregate(["customer_id"],
                                                    n=("count", None)))
        prepared = session.prepare(program, freeze=False)
        assert len(prepared.run().output("features")) == 20
        wanted.node.params["predicate"] = \
            dataset("ordersdb").table("orders").filter(
                col("customer_id") < 5).node.params["predicate"]
        assert len(prepared.run().output("features")) == 5

    def test_mode_plan_reresolved_after_deployment_change(self, deployment):
        from repro.core import build_cpu_polystore

        system = build_cpu_polystore([RelationalEngine("soloDB")])
        system.engine("soloDB").load_table(
            "t", Table(make_schema(("x", DataType.INT)), [(1,), (2,)]))
        program = DataflowProgram("solo")
        program.output("rows", dataset("soloDB").sql("SELECT x FROM t"))
        session = system.session()
        prepared = session.prepare(program, mode="polystore++")
        assert prepared._plan.migration_strategy == "binary_pipe"
        from dataclasses import replace

        from repro.accelerators import MIGRATION_ASIC, Accelerator

        system.register_accelerator(
            Accelerator(replace(MIGRATION_ASIC, name="late-asic")),
            use_for_migration=True)
        prepared.run()
        assert prepared._plan.migration_strategy == "accelerated"

    def test_session_rejects_explicit_zero_workers(self, deployment):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            deployment.session(max_workers=0)


class TestRuntimeParameters:
    def test_param_binding_and_defaults(self, deployment):
        # The summary window's end time is bound per run, prepared once.
        session = deployment.session()
        parameterized = DataflowProgram("bounded-sessions")
        parameterized.output("sessions", dataset("telemetry").timeseries(
            "sessions/", end=Param("end", default=None)))
        prepared = session.prepare(parameterized)
        assert set(prepared.parameters()) == {"end"}
        everything = prepared.run()
        bounded = prepared.run(end=3.0)
        all_rows = everything.output("sessions").to_dicts()
        few_rows = bounded.output("sessions").to_dicts()
        assert {r["pid"] for r in all_rows} == {r["pid"] for r in few_rows}
        assert (max(r["vital_count"] for r in few_rows)
                < max(r["vital_count"] for r in all_rows))

    def test_unknown_parameter_rejected(self, deployment):
        session = deployment.session()
        parameterized = DataflowProgram("bounded")
        parameterized.output("sessions", dataset("telemetry").timeseries(
            "sessions/", end=Param("end", default=None)))
        prepared = session.prepare(parameterized)
        with pytest.raises(ExecutionError, match="unknown parameter"):
            prepared.run(limit=5)

    def test_explain_names_parameters_pins_and_the_plan(self, deployment):
        prepared = deployment.session().prepare(
            query_program(end=Param("end", default=None)))
        bound = prepared.run(end=3.0)
        text = prepared.explain()
        assert "parameters: end" in text
        pinnable = int(re.search(r"pinned scans: 0/(\d+)", text).group(1))
        assert pinnable > 0  # an explicitly bound run pins nothing
        assert bound.compilation.graph.render() in text
        prepared.run()
        assert f"pinned scans: {pinnable}/{pinnable}" in prepared.explain()


class TestConcurrentSessions:
    def test_eight_parallel_submits_match_serial(self, deployment):
        serial = deployment.execute(query_program()).output("features").to_dicts()
        with deployment.session(max_workers=8) as session:
            futures = [session.submit(query_program(), reuse_scans=False)
                       for _ in range(8)]
            results = [f.result() for f in futures]
        assert len(results) == 8
        for result in results:
            assert result.output("features").to_dicts() == serial

    def test_run_batch_preserves_order_and_outputs(self, deployment):
        serial = deployment.execute(query_program()).output("features").to_dicts()
        with deployment.session(max_workers=4) as session:
            prepared = session.prepare(query_program())
            results = session.run_batch([prepared] * 8)
        assert all(r.output("features").to_dicts() == serial for r in results)

    def test_closed_session_rejects_work(self, deployment):
        session = deployment.session()
        session.close()
        with pytest.raises(ExecutionError, match="closed"):
            session.prepare(query_program())


class TestSatelliteFixes:
    def test_missing_output_lists_available_names(self, deployment):
        result = deployment.execute(query_program())
        with pytest.raises(ExecutionError, match="features"):
            result.output("nonexistent")

    @staticmethod
    def _asic(name: str):
        from dataclasses import replace

        from repro.accelerators import MIGRATION_ASIC, Accelerator

        return Accelerator(replace(MIGRATION_ASIC, name=name))

    def test_last_explicit_serializer_wins(self):
        from repro.core import PolystorePlusPlus

        system = PolystorePlusPlus()
        first = self._asic("asic-a")
        second = self._asic("asic-b")
        system.register_accelerator(first, use_for_migration=True)
        system.register_accelerator(second, use_for_migration=True)
        assert system.serializer_accelerator is second
        config = system.describe()["config"]
        assert config["migration_serializer"] == "asic-b"
        assert config["migration_serializer_explicit"] is True

    def test_implicit_serializer_never_displaces_explicit(self):
        from repro.core import PolystorePlusPlus

        system = PolystorePlusPlus()
        explicit = self._asic("asic-explicit")
        system.register_accelerator(explicit, use_for_migration=True)
        system.register_accelerator(self._asic("asic-implicit"))
        assert system.serializer_accelerator is explicit


class TestParamDefaultPinning:
    def test_argumentless_runs_of_param_programs_reuse_pins(self, deployment):
        program = query_program(end=Param("end", default=None))
        session = deployment.session()
        prepared = session.prepare(program)
        first = prepared.run()
        replay = prepared.run()
        # The all-defaults binding is identical run-to-run, so pinned scans
        # replay even though the program declares a Param.
        assert replay.report.cached_tasks > 0
        assert replay.output("features").rows == first.output("features").rows

    def test_explicit_bindings_still_bypass_pins(self, deployment):
        program = query_program(end=Param("end", default=None))
        session = deployment.session()
        prepared = session.prepare(program)
        full = prepared.run()
        bound = prepared.run(end=2.0)
        assert bound.report.cached_tasks == 0
        # A tighter window changes the timeseries features.
        full_means = [r["vital_mean"] for r in full.output("features").to_dicts()]
        bound_means = [r["vital_mean"] for r in bound.output("features").to_dicts()]
        assert full_means != bound_means
        # And the argument-less fast path still works afterwards.
        replay = prepared.run()
        assert replay.report.cached_tasks > 0


class TestWorkerPoolLifecycle:
    def test_worker_pool_cannot_be_resurrected_after_close(self, deployment):
        session = deployment.session()
        prepared = session.prepare(query_program())
        session.submit(prepared).result()
        session.close()
        assert session._pool is None
        # A submit that slipped past _check_open before close() must not
        # recreate the pool.
        with pytest.raises(ExecutionError):
            session._worker_pool()
        assert session._pool is None
