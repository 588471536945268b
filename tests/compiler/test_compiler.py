"""Tests for the compiler: frontend lowering, passes and the pipeline."""

from __future__ import annotations

import pytest

from repro.catalog import Catalog
from repro.compiler import Compiler, CompilerOptions, annotate_graph
from repro.compiler.frontend import Frontend, insert_migrations
from repro.compiler.passes import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fuse_operators,
    infer_columns,
    push_down_filters,
    reorder_joins,
)
from repro.eide import DataflowProgram, dataset
from repro.exceptions import CompilationError
from repro.ir import IRGraph, Operator, assert_valid
from repro.stores import MLEngine, RelationalEngine, TextEngine, TimeseriesEngine
from repro.stores.relational import compare
from repro.workloads import build_mimic_program, generate_mimic, load_mimic


@pytest.fixture
def catalog(mimic_engines) -> Catalog:
    catalog = Catalog()
    for key in ("relational", "timeseries", "text", "ml"):
        catalog.register_engine(mimic_engines[key])
    return catalog


@pytest.fixture
def mimic_program() -> DataflowProgram:
    return build_mimic_program(epochs=1)


def sql_program(query: str, engine: str | None = "clinical-db") -> DataflowProgram:
    program = DataflowProgram("p")
    program.output("q", dataset(engine).sql(query))
    return program


class TestFrontend:
    def test_sql_fragment_lowered_to_relational_operators(self, catalog):
        program = sql_program(
            "SELECT pid, age FROM admissions WHERE age > 60 ORDER BY age")
        graph = Frontend(catalog).lower(program)
        kinds = {node.kind for node in graph.nodes()}
        assert {"scan", "filter", "project", "sort"} <= kinds
        assert_valid(graph)

    def test_cross_engine_edges_get_migrations(self, catalog, mimic_program):
        graph = Frontend(catalog).lower(mimic_program)
        migrations = graph.nodes_of_kind("migrate")
        assert migrations, "expected migrate operators on cross-engine edges"
        for node in migrations:
            assert node.params["source_engine"] != node.params["target_engine"]

    def test_unknown_engine_rejected(self, catalog):
        program = sql_program("SELECT pid FROM admissions", engine="missing-db")
        with pytest.raises(CompilationError):
            Frontend(catalog).lower(program)

    def test_default_engine_chosen_by_paradigm(self, catalog):
        program = sql_program("SELECT pid FROM admissions", engine=None)
        graph = Frontend(catalog).lower(program)
        assert all(node.engine == "clinical-db" for node in graph.nodes())

    def test_default_without_an_engine_of_that_model_rejected(self, catalog):
        program = DataflowProgram("p")
        program.output("q", dataset(None).kv(key_prefix="user/"))
        with pytest.raises(CompilationError, match="kv_get"):
            Frontend(catalog).lower(program)

    def test_insert_migrations_idempotent(self, catalog, mimic_program):
        graph = Frontend(catalog).lower(mimic_program)
        assert insert_migrations(graph) == 0


class TestAnnotation:
    def test_scan_rows_come_from_catalog(self, catalog):
        program = sql_program("SELECT pid FROM admissions")
        graph = Frontend(catalog).lower(program)
        annotate_graph(graph, catalog)
        scan = graph.nodes_of_kind("scan")[0]
        assert scan.estimated_rows == 60
        assert scan.estimated_bytes > 0

    def test_filter_reduces_estimate(self, catalog):
        program = sql_program("SELECT pid FROM admissions WHERE age > 60")
        graph = Frontend(catalog).lower(program)
        annotate_graph(graph, catalog)
        scan = graph.nodes_of_kind("scan")[0]
        filter_node = graph.nodes_of_kind("filter")[0]
        assert filter_node.estimated_rows < scan.estimated_rows


class TestPasses:
    def _relational_graph(self, catalog) -> IRGraph:
        return Frontend(catalog).lower(sql_program(
            "SELECT name FROM admissions JOIN visits ON admissions.pid = visits.pid "
            "WHERE age > 60 AND ward = 'icu'"))

    def test_pushdown_moves_filter_below_join(self, catalog, mimic_engines):
        from repro.datamodel import Table
        visits = Table.from_dicts([{"pid": 1, "ward": "icu"}, {"pid": 2, "ward": "er"}])
        mimic_engines["relational"].load_table("visits", visits)
        graph = self._relational_graph(catalog)
        joins_before = graph.nodes_of_kind("join")
        assert len(joins_before) == 1
        rewrites = push_down_filters(graph, catalog)
        assert rewrites >= 1
        assert_valid(graph)
        # After pushdown at least one filter reads directly from a scan.
        pushed = [
            node for node in graph.nodes_of_kind("filter")
            if graph.node(node.inputs[0]).kind == "scan"
        ]
        assert pushed

    def _filter_over_project(self, columns, predicate) -> tuple[IRGraph, Operator, Operator]:
        graph = IRGraph("swap")
        scan = graph.add(Operator("scan", {"table": "admissions"}, engine="clinical-db"))
        project = graph.add(Operator("project", {"columns": columns},
                                     [scan.op_id], "clinical-db"))
        kept = graph.add(Operator("filter", {"predicate": predicate},
                                  [project.op_id], "clinical-db"))
        graph.mark_output(kept.op_id)
        return graph, project, kept

    def test_pushdown_swaps_filter_below_project(self, catalog):
        from repro.middleware.executor import Executor

        graph, project, kept = self._filter_over_project(
            ["pid", "age"], compare("age", ">", 80))
        plain = graph.copy()
        assert push_down_filters(graph, catalog) == 1
        assert_valid(graph)
        assert graph.node(kept.op_id).inputs == plain.node(project.op_id).inputs
        assert graph.node(project.op_id).inputs == [kept.op_id]
        assert graph.outputs == [project.op_id]
        swapped = Executor(catalog).execute(graph)[0][project.op_id]
        expected = Executor(catalog).execute(plain)[0][kept.op_id]
        assert swapped.schema == expected.schema and swapped.rows == expected.rows
        assert 0 < len(swapped) < len(catalog.engine("clinical-db").scan("admissions"))

    def test_pushdown_keeps_filter_above_a_projection_it_cannot_cross(self, catalog):
        # The predicate reads a column the projection dropped.
        graph, project, kept = self._filter_over_project(
            ["pid"], compare("age", ">", 80))
        assert push_down_filters(graph, catalog) == 0
        assert graph.node(kept.op_id).inputs == [project.op_id]
        # Another operator reads the unfiltered projection.
        graph, project, kept = self._filter_over_project(
            ["pid", "age"], compare("age", ">", 80))
        graph.mark_output(graph.add(Operator(
            "limit", {"n": 3}, [project.op_id], "clinical-db")).op_id)
        assert push_down_filters(graph, catalog) == 0
        assert graph.node(kept.op_id).inputs == [project.op_id]

    def test_pushdown_keeps_filter_above_a_projection_that_is_an_output(self, catalog):
        """At the parent the swap renamed the filtered output over the projection's."""
        graph, project, kept = self._filter_over_project(
            ["pid", "age"], compare("age", ">", 80))
        graph.mark_output(project.op_id)
        assert push_down_filters(graph, catalog) == 0
        assert graph.outputs == [kept.op_id, project.op_id]

    def test_fusion_merges_adjacent_filters(self, catalog):
        graph = IRGraph("fusion")
        scan = graph.add(Operator("scan", {"table": "admissions"}, engine="clinical-db"))
        f1 = graph.add(Operator("filter", {"predicate": compare("age", ">", 60)},
                                [scan.op_id], "clinical-db"))
        f2 = graph.add(Operator("filter", {"predicate": compare("age", "<", 90)},
                                [f1.op_id], "clinical-db"))
        graph.mark_output(f2.op_id)
        assert fuse_operators(graph) >= 1
        assert len(graph.nodes_of_kind("filter")) == 1
        assert_valid(graph)

    def test_fusion_folds_project_into_scan(self, catalog):
        graph = IRGraph("fusion2")
        scan = graph.add(Operator("scan", {"table": "admissions"}, engine="clinical-db"))
        project = graph.add(Operator("project", {"columns": ["pid", "age"]},
                                     [scan.op_id], "clinical-db"))
        graph.mark_output(project.op_id)
        fuse_operators(graph)
        assert graph.nodes_of_kind("project") == []
        assert graph.nodes_of_kind("scan")[0].params["columns"] == ["pid", "age"]

    def test_cse_merges_duplicate_scans(self, catalog):
        graph = IRGraph("cse")
        s1 = graph.add(Operator("scan", {"table": "admissions"}, engine="clinical-db"))
        s2 = graph.add(Operator("scan", {"table": "admissions"}, engine="clinical-db"))
        join = graph.add(Operator("join", {"left_key": "pid", "right_key": "pid"},
                                  [s1.op_id, s2.op_id], "clinical-db"))
        graph.mark_output(join.op_id)
        removed = eliminate_common_subexpressions(graph)
        assert removed == 1
        assert len(graph.nodes_of_kind("scan")) == 1

    def test_dce_removes_unreachable_nodes(self, catalog):
        graph = IRGraph("dce")
        live = graph.add(Operator("scan", {"table": "admissions"}, engine="clinical-db"))
        graph.add(Operator("scan", {"table": "unused"}, engine="clinical-db"))
        graph.mark_output(live.op_id)
        assert eliminate_dead_code(graph) == 1
        assert len(graph) == 1

    def test_join_reorder_puts_smaller_side_right(self, catalog):
        graph = IRGraph("reorder")
        big = graph.add(Operator("scan", {"table": "big"}, engine="clinical-db"))
        small = graph.add(Operator("scan", {"table": "small"}, engine="clinical-db"))
        join = graph.add(Operator("join", {"left_key": "k", "right_key": "k"},
                                  [small.op_id, big.op_id], "clinical-db"))
        graph.mark_output(join.op_id)
        small.estimated_rows, big.estimated_rows = 10, 10_000
        assert reorder_joins(graph) == 1
        assert join.inputs == [big.op_id, small.op_id]

    def test_infer_columns_for_scan(self, catalog):
        program = sql_program("SELECT pid FROM admissions")
        graph = Frontend(catalog).lower(program)
        columns = infer_columns(graph, catalog)
        scan = graph.nodes_of_kind("scan")[0]
        assert "age" in columns[scan.op_id]


class TestAbsorbIntoLeaves:
    def _filtered_scan_graph(self, predicate) -> IRGraph:
        from repro.ir import IRGraph

        graph = IRGraph("absorb")
        scan = graph.add(Operator("scan", {"table": "admissions"},
                                  engine="clinical-db"))
        kept = graph.add(Operator("filter", {"predicate": predicate},
                                  [scan.op_id], "clinical-db"))
        graph.mark_output(kept.op_id)
        return graph

    def test_filter_absorbed_into_scan(self, catalog):
        from repro.compiler.passes import absorb_into_leaves

        graph = self._filtered_scan_graph(compare("age", ">", 60))
        assert absorb_into_leaves(graph, catalog) == 1
        assert graph.nodes_of_kind("filter") == []
        scan = graph.nodes_of_kind("scan")[0]
        assert scan.params["predicate"] is not None
        assert graph.outputs == [scan.op_id]
        assert_valid(graph)

    def test_output_leaf_is_not_absorbed(self, catalog):
        from repro.compiler.passes import absorb_into_leaves

        graph = self._filtered_scan_graph(compare("age", ">", 60))
        scan = graph.nodes_of_kind("scan")[0]
        # The unfiltered scan is itself a program output: absorbing the
        # filter into it would silently filter (and rename) that output.
        graph.mark_output(scan.op_id)
        assert absorb_into_leaves(graph, catalog) == 0
        assert len(graph.nodes_of_kind("filter")) == 1

    def test_converted_seek_estimate_not_double_counted(self, catalog,
                                                        mimic_engines):
        from repro.compiler.passes import absorb_into_leaves

        mimic_engines["relational"].create_index("admissions", "pid")
        graph = self._filtered_scan_graph(compare("pid", "=", 3))
        absorb_into_leaves(graph, catalog)
        annotate_graph(graph, catalog)
        seek = graph.nodes_of_kind("index_seek")[0]
        # 60 admissions * 0.1 equality selectivity = 6; the flat //100 seek
        # factor must not be applied on top of the predicate selectivity.
        assert seek.estimated_rows == 6

    def test_shared_scan_is_not_absorbed(self, catalog):
        from repro.compiler.passes import absorb_into_leaves

        graph = self._filtered_scan_graph(compare("age", ">", 60))
        scan = graph.nodes_of_kind("scan")[0]
        # A second consumer needs the unfiltered scan: absorption must skip.
        graph.add(Operator("project", {"columns": ["pid"]}, [scan.op_id],
                           "clinical-db"))
        assert absorb_into_leaves(graph, catalog) == 0
        assert len(graph.nodes_of_kind("filter")) == 1

    def test_kv_prefix_filter_gains_explicit_keys(self, catalog):
        from repro.compiler.passes import absorb_into_leaves
        from repro.ir import IRGraph

        graph = IRGraph("kv")
        read = graph.add(Operator("kv_get", {"keys": None,
                                             "key_prefix": "customer/"},
                                  engine="clinical-db"))
        kept = graph.add(Operator("filter", {"predicate": compare("key", "=", 7)},
                                  [read.op_id], "clinical-db"))
        graph.mark_output(kept.op_id)
        assert absorb_into_leaves(graph, catalog) == 1
        assert read.params["keys"] == ["customer/7"]

    def test_ts_summary_filter_gains_series_keys(self, catalog):
        from repro.compiler.passes import absorb_into_leaves
        from repro.ir import IRGraph
        from repro.stores.relational.expressions import ColumnRef, InList

        graph = IRGraph("ts")
        read = graph.add(Operator("ts_summarize", {"series_prefix": "hr/"},
                                  engine="monitors"))
        predicate = InList(ColumnRef("pid"), (3, 5))
        kept = graph.add(Operator("filter", {"predicate": predicate},
                                  [read.op_id], "monitors"))
        graph.mark_output(kept.op_id)
        assert absorb_into_leaves(graph, catalog) == 1
        assert read.params["series_keys"] == ["hr/3", "hr/5"]

    def test_indexed_equality_converts_scan_to_index_seek(self, catalog,
                                                          mimic_engines):
        from repro.compiler.passes import absorb_into_leaves

        mimic_engines["relational"].create_index("admissions", "pid")
        graph = self._filtered_scan_graph(compare("pid", "=", 3))
        assert absorb_into_leaves(graph, catalog) == 1
        seek = graph.nodes_of_kind("index_seek")[0]
        assert seek.params["column"] == "pid" and seek.params["value"] == 3

    def test_predicate_key_values_intersects_conjuncts(self):
        from repro.compiler.passes import predicate_key_values
        from repro.stores.relational.expressions import ColumnRef, InList, and_

        predicate = and_(InList(ColumnRef("k"), (1, 2, 3)),
                         compare("k", "=", 2))
        assert predicate_key_values(predicate, "k") == [2]
        assert predicate_key_values(compare("other", "=", 1), "k") is None


class TestPipeline:
    def test_compile_mimic_program(self, catalog, mimic_program):
        result = Compiler(catalog).compile(mimic_program)
        assert len(result.graph) > 5
        assert result.pass_counts
        assert_valid(result.graph)

    def test_disabled_optimizations_do_nothing(self, catalog, mimic_program):
        result = Compiler(catalog).compile(mimic_program, CompilerOptions.none())
        assert result.pass_counts == {}
        assert result.offloaded_operators == 0

    def test_placement_requires_planner(self, catalog, mimic_program):
        from repro.accelerators import FPGA, Accelerator, KernelRegistry, OffloadPlanner
        planner = OffloadPlanner(KernelRegistry([Accelerator(FPGA)]))
        compiler = Compiler(catalog, planner=planner)
        result = compiler.compile(mimic_program)
        assert isinstance(result.placement_decisions, list)
        summary = result.summary()
        assert summary["nodes"] == len(result.graph)
