"""Materialized-view behavior: policies, rewriting, fallbacks, accounting."""

from __future__ import annotations

import pytest

from repro import PolystorePlusPlus, col, view_dataset
from repro.compiler.pipeline import CompilerOptions
from repro.datamodel import DataType, Table, make_schema
from repro.eide.dataflow import DataflowProgram, Dataset
from repro.eide.program import Param
from repro.exceptions import ConfigurationError
from repro.stores import KeyValueEngine, RelationalEngine


REGIONS = ("north", "south", "east")


def _system(rows: int = 300):
    system = PolystorePlusPlus()
    db = system.register_engine(RelationalEngine("salesdb"))
    schema = make_schema(("order_id", DataType.INT), ("region", DataType.STRING),
                         ("amount", DataType.FLOAT))
    db.load_table("orders", Table(schema, [
        (i, REGIONS[i % 3], float(i % 7)) for i in range(rows)
    ]))
    return system, db


def _spend_expr(system):
    return (system.dataset("salesdb").table("orders")
            .filter(col("amount") > 1.0)
            .aggregate(["region"], total=("sum", "amount"), n=("count", None)))


def _direct(system, expr):
    """The expression run from the base data, bypassing every view."""
    program = DataflowProgram("recompute-baseline")
    program.output("res", Dataset(expr.node))
    result = system.execute(program, options=CompilerOptions(use_views=False))
    return result.output("res")


def _recompute(system, expr):
    return _sorted_rows(_direct(system, expr).to_dicts())


def _sorted_rows(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


class TestViewLifecycle:
    def test_create_read_matches_recompute(self):
        system, _ = _system()
        expr = _spend_expr(system)
        view = system.create_view("spend", expr, policy="manual")
        assert view.incremental
        assert _sorted_rows(view.read()[0].to_dicts()) == _recompute(system, expr)

    def test_incremental_refresh_tracks_mixed_writes(self):
        system, db = _system()
        expr = _spend_expr(system)
        view = system.create_view("spend", expr, policy="manual")
        db.insert("orders", [(1000, "north", 50.0), (1001, "south", None)])
        db.delete_rows("orders", col("order_id") < 10)
        db.update_rows("orders", col("order_id") == 20, {"amount": 33.0})
        outcome = view.refresh()
        assert outcome.kind == "incremental"
        assert _sorted_rows(view.read()[0].to_dicts()) == _recompute(system, expr)

    def test_refresh_without_changes_is_a_noop(self):
        system, _ = _system()
        view = system.create_view("spend", _spend_expr(system), policy="manual")
        assert view.refresh().kind == "noop"
        assert view.skipped_refreshes == 1

    def test_charged_time_scales_with_delta_not_base(self):
        system, db = _system(rows=4000)
        view = system.create_view("spend", _spend_expr(system), policy="manual")
        db.insert("orders", [(10_000, "north", 5.0)])
        outcome = view.refresh()
        assert outcome.kind == "incremental"
        assert outcome.charged_time_s < view.initial_charged_s / 3

    def test_duplicate_and_param_views_rejected(self):
        system, _ = _system()
        expr = _spend_expr(system)
        system.create_view("spend", expr, policy="manual")
        with pytest.raises(ConfigurationError):
            system.create_view("spend", _spend_expr(system))
        with pytest.raises(ConfigurationError):
            system.create_view("other", _spend_expr(system))  # same expression
        with pytest.raises(ConfigurationError):
            system.create_view("paramed", system.dataset("salesdb").table("orders")
                               .filter(col("amount") > Param("lo", 1.0)))

    def test_view_over_view_rejected(self):
        # A view over a view_read has no engine sources to watch; it would
        # serve its creation-time snapshot forever under every policy.
        system, _ = _system()
        system.create_view("spend", _spend_expr(system), policy="manual")
        with pytest.raises(ConfigurationError):
            system.create_view("over", view_dataset("spend").top_k("total", 1))

    def test_drop_view_restores_base_execution(self):
        system, _ = _system()
        expr = _spend_expr(system)
        system.create_view("spend", expr, policy="manual")
        system.drop_view("spend")
        program = DataflowProgram("after-drop")
        program.output("res", Dataset(expr.node))
        result = system.execute(program)
        assert "view_read" not in {r.kind for r in result.report.records}
        with pytest.raises(ConfigurationError):
            system.view("spend")


class TestPolicies:
    def test_eager_refreshes_on_write(self):
        system, db = _system()
        view = system.create_view("spend", _spend_expr(system), policy="eager")
        db.insert("orders", [(2000, "east", 30.0)])
        # No explicit refresh: the changelog subscription already ran one.
        assert view.incremental_refreshes >= 1
        assert not view.stale

    def test_deferred_refreshes_on_read(self):
        system, db = _system()
        expr = _spend_expr(system)
        view = system.create_view("spend", expr, policy="deferred")
        db.insert("orders", [(2000, "east", 30.0)])
        assert view.stale
        table, charged, _ = view.read()
        assert charged > 0.0
        assert not view.stale
        assert _sorted_rows(table.to_dicts()) == _recompute(system, expr)

    def test_manual_stays_stale_until_refreshed(self):
        system, db = _system()
        view = system.create_view("spend", _spend_expr(system), policy="manual")
        before = _sorted_rows(view.read()[0].to_dicts())
        db.insert("orders", [(2000, "east", 30.0)])
        assert view.stale
        assert _sorted_rows(view.read()[0].to_dicts()) == before
        view.refresh()
        assert _sorted_rows(view.read()[0].to_dicts()) != before

    def test_eager_refresh_failure_does_not_break_the_writer(self):
        # Regression: a committed mutation must not appear to fail because
        # the synchronous eager listener's refresh blew up.
        system, db = _system()
        expr = _spend_expr(system)
        view = system.create_view("spend", expr, policy="eager")
        db.drop_table("orders")  # commits, logs a gap, listener resync fails
        assert not db.has_table("orders")
        assert view.last_error is not None
        assert view.describe()["last_error"] is not None
        # The reader, not the writer, sees the failure.
        with pytest.raises(Exception):
            view.refresh(force_full=True)

    def test_auto_defers_once_observed_deltas_grow(self):
        system, db = _system()
        view = system.create_view("spend", _spend_expr(system), policy="auto",
                                  auto_delta_rows=2)
        db.insert("orders", [(3000, "north", 9.0)])  # small: handled eagerly
        assert view.incremental_refreshes >= 1
        # A burst far past the threshold drives the EWMA up...
        db.insert("orders", [(4000 + i, "south", 2.0) for i in range(500)])
        refreshes_after_burst = view.refreshes
        # ...so the next writes are deferred to read time.
        db.insert("orders", [(9000, "east", 1.0)])
        assert view.refreshes == refreshes_after_burst
        assert view.stale
        view.read()
        assert not view.stale


class TestRewriting:
    def test_prepared_program_reads_maintained_state(self):
        system, db = _system()
        expr = _spend_expr(system)
        system.create_view("spend", expr, policy="deferred")
        program = DataflowProgram("dashboard")
        program.output("res", Dataset(expr.node))
        session = system.session()
        prepared = session.prepare(program)
        first = prepared.run()
        assert {r.kind for r in first.report.records} == {"view_read"}
        db.insert("orders", [(5000, "north", 70.0)])
        second = prepared.run()
        assert _sorted_rows(second.output("res").to_dicts()) == \
            _recompute(system, expr)
        view = system.view("spend")
        assert view.incremental_refreshes >= 1

    def test_rewrite_matches_inner_subtrees(self):
        system, _ = _system()
        expr = _spend_expr(system)
        system.create_view("spend", expr, policy="deferred")
        program = DataflowProgram("top-region")
        program.output("top", Dataset(expr.node).top_k("total", 1))
        result = system.execute(program)
        kinds = {r.kind for r in result.report.records}
        assert "view_read" in kinds and "top_k" in kinds
        assert "scan" not in kinds

    def test_explicit_view_dataset_read(self):
        system, _ = _system()
        expr = _spend_expr(system)
        system.create_view("spend", expr, policy="deferred")
        program = DataflowProgram("explicit")
        program.output("res", view_dataset("spend").filter(col("n") > 0))
        result = system.execute(program)
        assert len(result.output("res")) == 3

    def test_use_views_false_bypasses_the_registry(self):
        system, _ = _system()
        expr = _spend_expr(system)
        system.create_view("spend", expr, policy="deferred")
        program = DataflowProgram("baseline")
        program.output("res", Dataset(expr.node))
        result = system.execute(program, options=CompilerOptions(use_views=False))
        kinds = {r.kind for r in result.report.records}
        assert "view_read" not in kinds and "scan" in kinds


class TestFallbacks:
    def test_non_incremental_tree_recomputes(self):
        system, db = _system()
        expr = (system.dataset("salesdb").table("orders")
                .apply(lambda t: t))  # python_udf: no delta form
        view = system.create_view("verbatim", expr, policy="manual")
        assert not view.incremental
        db.insert("orders", [(7000, "north", 1.0)])
        assert view.stale
        assert view.refresh().kind == "full"
        assert view.full_recomputes == 1

    def test_changelog_gap_triggers_resync(self):
        system, db = _system()
        expr = _spend_expr(system)
        view = system.create_view("spend", expr, policy="manual")
        # An undescribed engine-wide mutation (gap batch) breaks the cursor.
        db.mark_data_changed()
        outcome = view.refresh()
        assert outcome.kind == "full"
        assert "resync_reason" in outcome.details
        # The rebuilt cursor keeps tracking deltas afterwards.
        db.insert("orders", [(8000, "south", 2.0)])
        assert view.refresh().kind == "incremental"
        assert _sorted_rows(view.read()[0].to_dicts()) == _recompute(system, expr)

    def test_full_rebuild_to_empty_drops_cached_materialization(self):
        # Regression: a resync that rebuilds the state to *empty* content
        # must still invalidate the version-keyed materialization cache.
        system, db = _system()
        expr = _spend_expr(system)
        view = system.create_view("spend", expr, policy="manual")
        assert len(view.read()[0]) == 3  # caches the 3-region table
        db.delete_rows("orders", col("order_id") >= 0)
        db.mark_data_changed()  # gap: the next refresh is a full rebuild
        outcome = view.refresh()
        assert outcome.kind == "full"
        assert view.read()[0].to_dicts() == []

    def test_other_table_churn_never_forces_resync(self):
        # Regression: the cursor advances to the log head on every complete
        # pull, so heavy writes to *other* tables on the same engine must
        # not trim the log past a quiet view's cursor.
        system, db = _system()
        other = make_schema(("k", DataType.INT), ("v", DataType.FLOAT))
        db.load_table("hot", Table(other, [(0, 0.0)]))
        view = system.create_view("spend", _spend_expr(system), policy="manual")
        db.changelog.capacity = 50
        for round_index in range(5):
            for i in range(40):  # 200 total: far past the log capacity
                db.insert("hot", [(round_index * 100 + i, 1.0)])
            outcome = view.refresh()
            assert outcome.kind == "noop", (round_index, outcome)
        assert view.full_recomputes == 0
        # The orders table still tracks incrementally afterwards.
        db.insert("orders", [(9000, "north", 1.0)])
        assert view.refresh().kind == "incremental"

    def test_diverged_state_recovers_on_read(self):
        # Regression: a negative-weight record surfacing at materialization
        # must trigger a full rebuild instead of wedging every view_read.
        system, _ = _system()
        expr = _spend_expr(system)
        view = system.create_view("spend", expr, policy="deferred")
        view._state.add(("ghost", 1.0, 1), -1)  # laid out region, total, n
        view._table = None  # drop the cached table
        table, charged, _ = view.read()
        assert charged > 0.0  # the recovery rebuild was charged
        assert _sorted_rows(table.to_dicts()) == _recompute(system, expr)
        assert view.full_recomputes == 1

    def test_log_truncation_triggers_resync(self):
        system, db = _system()
        view = system.create_view("spend", _spend_expr(system), policy="manual")
        db.changelog.capacity = 2
        for i in range(10):
            db.insert("orders", [(9000 + i, "north", 1.0)])
        outcome = view.refresh()
        assert outcome.kind == "full"
        assert _sorted_rows(view.read()[0].to_dicts()) == \
            _recompute(system, _spend_expr(system))


class TestConcurrency:
    def test_create_view_does_not_deadlock_against_prepare(self):
        # Regression (ABBA): create_view must not hold the registry lock
        # while initialization takes the session prepare lock, because
        # prepare -> compile -> rewrite takes the registry lock.
        import threading

        system, _ = _system()
        base_expr = _spend_expr(system)
        system.create_view("warm", base_expr, policy="deferred")
        program = DataflowProgram("reader")
        program.output("res", Dataset(base_expr.node))
        errors = []

        def creator():
            try:
                system.create_view(
                    "second",
                    system.dataset("salesdb").table("orders")
                    .aggregate(["region"], n=("count", None)))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def preparer():
            try:
                for _ in range(20):
                    system.execute(program)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=creator),
                   threading.Thread(target=preparer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads), \
            "create_view deadlocked against prepare"
        assert not errors

    def test_eager_writers_and_readers_with_forced_resyncs_no_deadlock(self):
        # Regression (ABBA): engine mutators must notify changelog listeners
        # outside the write lock — an eager refresh fired under it would
        # deadlock against a reader whose resync takes snapshot_scan.
        import threading

        system, db = _system()
        view = system.create_view("spend", _spend_expr(system), policy="eager")
        errors = []

        def writer():
            try:
                for i in range(30):
                    db.insert("orders", [(50_000 + i, "north", 2.0)])
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def reader():
            try:
                for _ in range(30):
                    view.read()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        db.mark_data_changed()  # gap: forces resyncs through snapshot_scan
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads), \
            "writer/reader deadlocked under eager maintenance"
        assert not errors
        view.refresh()
        assert _sorted_rows(view.read()[0].to_dicts()) == \
            _recompute(system, _spend_expr(system))

    def test_concurrent_creates_of_same_name_conflict_cleanly(self):
        import threading

        system, _ = _system()
        outcomes = []

        def create():
            try:
                system.create_view("spend", _spend_expr(system))
                outcomes.append("ok")
            except ConfigurationError:
                outcomes.append("conflict")

        threads = [threading.Thread(target=create) for _ in range(2)]
        [t.start() for t in threads]
        [t.join() for t in threads]
        assert sorted(outcomes) == ["conflict", "ok"]


class TestOrderedRoots:
    def test_non_incremental_view_preserves_program_order(self):
        # Regression: a full-recompute-only view (python_udf in the tree)
        # ending in a sort must return the program's order, not a canonical
        # Z-set expansion.
        system, db = _system()
        expr = (system.dataset("salesdb").table("orders")
                .apply(lambda t: t)
                .sort("amount", descending=True))
        view = system.create_view("ordered-verbatim", expr, policy="manual")
        assert not view.incremental
        db.insert("orders", [(7000, "north", 999.0)])
        view.refresh()
        program = DataflowProgram("baseline")
        program.output("res", Dataset(expr.node))
        expected = system.execute(
            program, options=CompilerOptions(use_views=False)).output("res")
        assert view.read()[0].to_dicts() == expected.to_dicts()

    def test_top_k_view_matches_recompute_order(self):
        system, db = _system()
        expr = (_spend_expr(system).top_k("total", 2))
        view = system.create_view("top-spend", expr, policy="manual")
        db.insert("orders", [(6000, "east", 500.0)])
        view.refresh()
        program = DataflowProgram("baseline")
        program.output("res", Dataset(expr.node))
        expected = system.execute(
            program, options=CompilerOptions(use_views=False)).output("res")
        assert view.read()[0].to_dicts() == expected.to_dicts()


class TestSnapshotDiffSources:
    def test_kv_side_input_only_rereads_on_change(self):
        system, db = _system()
        kv = system.register_engine(KeyValueEngine("profiles"))
        for region in REGIONS:
            kv.put(region, {"manager": f"m-{region}"})
        expr = (system.dataset("salesdb").table("orders")
                .aggregate(["region"], total=("sum", "amount")))
        view = system.create_view("spend-kv", expr, policy="manual")
        assert view.incremental
        db.insert("orders", [(5000, "north", 3.0)])
        assert view.refresh().kind == "incremental"

    @staticmethod
    def _scores_view(system):
        """A filtered prefix read registered while no ``user/`` key exists."""
        kv = system.register_engine(KeyValueEngine("profiles"))
        kv.put("other/0", {"unrelated": True})
        expr = (system.dataset("profiles").kv(key_prefix="user/")
                .filter(col("score") > 1.0))
        view = system.create_view("scores", expr, policy="manual")
        for i in range(6):
            kv.put(f"user/{i}", {"grp": REGIONS[i % 3], "score": float(i)})
        return kv, expr, view

    def test_kv_view_created_over_an_empty_prefix_serves_every_column(self):
        # Regression: the view kept the placeholder schema of the empty read
        # it was created over and served only ``key`` forever.
        system, _ = _system()
        _, expr, view = self._scores_view(system)
        view.refresh()
        table = view.read()[0]
        direct = _direct(system, expr)
        assert table.schema == direct.schema
        assert table.schema.names == ("key", "grp", "score")
        assert sorted(table.rows) == sorted(direct.rows)
        assert len(table) == 4
        # Bound now: further writes are maintained from deltas.
        assert view.incremental

    def test_kv_view_picks_up_a_new_field_after_one_full_refresh(self):
        system, _ = _system()
        kv, expr, view = self._scores_view(system)
        view.refresh()
        kv.put("user/6", {"grp": "north", "score": 6.0, "vip": True})
        outcome = view.refresh()
        assert outcome.kind == "full"
        assert "resync_reason" in outcome.details
        table = view.read()[0]
        direct = _direct(system, expr)
        assert table.schema == direct.schema
        assert table.schema.names == ("key", "grp", "score", "vip")
        assert sorted(table.rows, key=repr) == sorted(direct.rows, key=repr)
        # The rebuilt program is bound to the grown schema: deltas again.
        kv.put("user/7", {"grp": "south", "score": 7.0, "vip": False})
        assert view.refresh().kind == "incremental"
        assert view.read()[0].schema == _direct(system, expr).schema
        assert len(view.read()[0]) == 6

    def test_view_with_join_over_two_tables(self):
        system, db = _system()
        customers = make_schema(("region", DataType.STRING),
                                ("priority", DataType.INT))
        db.load_table("regions", Table(customers, [
            (region, i) for i, region in enumerate(REGIONS)
        ]))
        expr = (system.dataset("salesdb").table("orders")
                .join(system.dataset("salesdb").table("regions"), on="region")
                .filter(col("priority") > 0)
                .aggregate(["region"], total=("sum", "amount")))
        view = system.create_view("joined", expr, policy="manual")
        assert view.incremental
        db.insert("orders", [(5000, "south", 41.0)])
        db.insert("regions", [("west", 9)])
        db.insert("orders", [(5001, "west", 7.0)])
        assert view.refresh().kind == "incremental"
        assert _sorted_rows(view.read()[0].to_dicts()) == _recompute(system, expr)


class TestAccounting:
    def test_view_read_record_carries_refresh_charge(self):
        system, db = _system()
        expr = _spend_expr(system)
        system.create_view("spend", expr, policy="deferred")
        program = DataflowProgram("dash")
        program.output("res", Dataset(expr.node))
        session = system.session()
        prepared = session.prepare(program)
        prepared.run()
        db.insert("orders", [(5000, "north", 3.0)])
        result = prepared.run()
        (record,) = result.report.records
        assert record.kind == "view_read"
        assert record.details["refresh_charged_s"] > 0.0
        assert record.charged_time_s >= record.details["refresh_charged_s"]

    def test_refreshes_land_in_the_feedback_store(self):
        system, db = _system()
        view = system.create_view("spend", _spend_expr(system), policy="manual")
        db.insert("orders", [(5000, "north", 3.0)])
        view.refresh()
        observed = system.runtime_stats.observed(view.stats_fingerprint)
        assert observed is not None and observed.kind == "view_refresh"

    def test_describe_reports_views(self):
        system, _ = _system()
        system.create_view("spend", _spend_expr(system), policy="manual")
        (entry,) = system.describe()["views"]
        assert entry["name"] == "spend" and entry["incremental"]
