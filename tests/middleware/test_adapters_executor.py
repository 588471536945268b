"""Tests for the engine adapters and the executor."""

from __future__ import annotations

import random
import warnings

import pytest

from repro import DataflowProgram, dataset

from repro.catalog import Catalog
from repro.compiler import Compiler
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import AdapterError, CatalogError, ExecutionError
from repro.ir import IRGraph, Operator
from repro.middleware.adapters import (
    KeyValueAdapter,
    MLAdapter,
    RelationalAdapter,
    TextAdapter,
    TimeseriesAdapter,
    adapter_for,
)
from repro.middleware.executor import Executor
from repro.stores import KeyValueEngine, MLEngine, RelationalEngine
from repro.stores.relational import compare
from repro.stores.relational.operators import AggregateSpec
from repro.workloads import build_mimic_program


class TestAdapterDispatch:
    def test_adapter_for_each_engine(self, mimic_engines):
        assert isinstance(adapter_for(mimic_engines["relational"]), RelationalAdapter)
        assert isinstance(adapter_for(mimic_engines["timeseries"]), TimeseriesAdapter)
        assert isinstance(adapter_for(mimic_engines["text"]), TextAdapter)
        assert isinstance(adapter_for(mimic_engines["ml"]), MLAdapter)
        assert isinstance(adapter_for(KeyValueEngine()), KeyValueAdapter)


class TestRelationalAdapter:
    def test_scan_and_federated_operators(self, relational_engine):
        adapter = RelationalAdapter(relational_engine)
        scan = Operator("scan", {"table": "patients"}, engine="testdb")
        table = adapter.execute(scan, [])
        assert len(table) == 5
        filtered = adapter.execute(
            Operator("filter", {"predicate": compare("age", ">", 60)}, ["x"], "testdb"),
            [table])
        assert len(filtered) == 3
        aggregated = adapter.execute(
            Operator("aggregate", {"group_by": [],
                                   "aggregates": [AggregateSpec("count", None, "n")]},
                     ["x"], "testdb"),
            [filtered])
        assert aggregated.to_dicts()[0]["n"] == 3

    def test_join_over_materialized_tables(self, relational_engine):
        adapter = RelationalAdapter(relational_engine)
        left = Table.from_dicts([{"pid": 1, "a": 10}, {"pid": 2, "a": 20}])
        right = Table.from_dicts([{"pid": 1, "b": "x"}])
        joined = adapter.execute(
            Operator("join", {"left_key": "pid", "right_key": "pid"}, ["l", "r"], "testdb"),
            [left, right])
        assert joined.to_dicts() == [{"pid": 1, "a": 10, "b": "x"}]

    def test_bad_input_type_raises(self, relational_engine):
        adapter = RelationalAdapter(relational_engine)
        with pytest.raises(AdapterError):
            adapter.execute(Operator("filter", {"predicate": compare("a", "=", 1)},
                                     ["x"], "testdb"), ["not a table"])


class TestNoSQLAdapters:
    def test_kv_prefix_lookup_builds_table(self):
        engine = KeyValueEngine()
        engine.put_many({f"customer/{i}": {"tier": i % 3} for i in range(5)})
        adapter = KeyValueAdapter(engine)
        table = adapter.execute(
            Operator("kv_get", {"key_prefix": "customer/", "key_column": "customer_id"},
                     engine="kv"), [])
        assert len(table) == 5
        assert set(table.schema.names) == {"customer_id", "tier"}
        assert sorted(table.column("customer_id")) == [0, 1, 2, 3, 4]

    def test_timeseries_summarize_extracts_entity_keys(self, mimic_engines):
        adapter = TimeseriesAdapter(mimic_engines["timeseries"])
        table = adapter.execute(
            Operator("ts_summarize", {"series_prefix": "hr/"}, engine="monitors"), [])
        assert len(table) == 60
        assert "vital_mean" in table.schema.names
        assert isinstance(table.column("pid")[0], int)

    def test_text_keyword_features(self, mimic_engines):
        adapter = TextAdapter(mimic_engines["text"])
        table = adapter.execute(
            Operator("keyword_features",
                     {"keywords": ["sepsis", "stable"], "doc_prefix": "note/",
                      "id_column": "pid"}, engine="notes-db"), [])
        assert len(table) == 60
        assert "kw_sepsis" in table.schema.names

    def test_keyword_features_requires_keywords(self, mimic_engines):
        adapter = TextAdapter(mimic_engines["text"])
        with pytest.raises(AdapterError):
            adapter.execute(Operator("keyword_features", {"keywords": []},
                                     engine="notes-db"), [])


class TestSchemalessEmptyReads:
    """An empty key/value or graph read has only a placeholder schema.

    Filters and projections over it name columns that schema cannot know;
    with no row to read they return an empty table instead of rejecting the
    column (a typed table's projection still gets its plan-derived schema).
    """

    PREDICATE = compare("tier", "=", 1)

    def test_kv_read_with_pushed_predicate_and_no_matching_key(self):
        engine = KeyValueEngine()
        engine.put("other/1", {"uid": 1, "tier": 1})
        table = KeyValueAdapter(engine).execute(
            Operator("kv_get", {"key_prefix": "user/", "predicate": self.PREDICATE},
                     engine="kv"), [])
        assert len(table) == 0

    @pytest.mark.parametrize("kind, params", [
        ("filter", {"predicate": PREDICATE}),
        ("project", {"columns": ["key", "tier"]}),
    ])
    def test_filter_and_project_over_an_empty_read(self, kind, params):
        adapter = KeyValueAdapter(KeyValueEngine())
        empty = adapter.execute(Operator("kv_get", {"key_prefix": "user/"},
                                         engine="kv"), [])
        result = adapter.execute(Operator(kind, params, ["x"], "kv"), [empty])
        assert len(result) == 0
        assert list(result.schema.names) == ["key"]

    def test_projecting_an_empty_typed_table_keeps_the_projection_schema(
            self, relational_engine):
        adapter = RelationalAdapter(relational_engine)
        patients = adapter.execute(Operator("scan", {"table": "patients"},
                                            engine="testdb"), [])
        nobody = adapter.execute(
            Operator("filter", {"predicate": compare("age", ">", 200)}, ["x"],
                     "testdb"), [patients])
        projected = adapter.execute(
            Operator("project", {"columns": ["age", "pid"]}, ["x"], "testdb"),
            [nobody])
        assert projected.schema == patients.schema.project(["age", "pid"])

    def test_offloaded_filter_over_an_empty_read_streams_nothing(self):
        from repro.accelerators import FPGA, Accelerator

        catalog = Catalog()
        catalog.register_engine(KeyValueEngine("kv"))
        fpga = Accelerator(FPGA)
        catalog.register_accelerator(fpga)
        graph = IRGraph("offload")
        read = graph.add(Operator("kv_get", {"key_prefix": "user/"}, engine="kv"))
        kept = graph.add(Operator("filter", {"predicate": self.PREDICATE},
                                  [read.op_id], "kv", accelerator=fpga.profile.name))
        graph.mark_output(kept.op_id)
        outputs, report = Executor(catalog).execute(graph)
        assert len(outputs[kept.op_id]) == 0
        # No row to stream: the device is charged its dispatch, nothing more.
        record = report.records[-1]
        assert record.details == {"kernel": "filter", "flops": 0}
        assert record.charged_time_s == fpga.profile.dispatch_overhead_s

    def test_filter_over_a_label_with_no_nodes(self):
        from repro import build_cpu_polystore
        from repro.eide.dataflow import DataflowProgram, dataset
        from repro.eide.expressions import col
        from repro.stores import GraphEngine

        system = build_cpu_polystore([GraphEngine("social")])
        program = DataflowProgram("nobody")
        program.output("people", dataset("social").graph().nodes("person")
                       .filter(col("age") > 30))
        assert len(system.execute(program).output("people")) == 0

    @pytest.mark.parametrize("mode", ["accelerated", "cpu"])
    def test_fewer_rows_than_partitions(self, mode):
        """Most partitions of the table hold no row: a read of one of them is
        empty and typed, a read of the rest whole."""
        from repro import build_accelerated_polystore
        from repro.eide.expressions import col
        from repro.stores.relational.partition import partition_of

        build = build_cpu_polystore if mode == "cpu" else build_accelerated_polystore
        engine = RelationalEngine("profiles", partitions=8)
        system = build([engine])
        schema = make_schema(("uid", DataType.INT), ("tier", DataType.INT))
        engine.load_table("users", Table(schema, [(1, 1), (2, 2)]))
        empty = next(uid for uid in range(3, 100)
                     if partition_of(uid, 8) not in {partition_of(1, 8), partition_of(2, 8)})
        reads = dataset("profiles").table("users")
        program = DataflowProgram("profile")
        program.output("filtered", reads.filter(col("tier") == 1))
        program.output("nobody", reads.filter(col("uid") == empty))
        program.output("projected", reads.filter(col("uid") == empty).project(["tier"]))
        program.output("all", reads.project(["uid"]))
        result = system.execute(program)
        assert result.output("filtered").to_dicts() == [{"uid": 1, "tier": 1}]
        assert len(result.output("nobody")) == 0
        assert result.output("nobody").schema == schema
        assert result.output("projected").schema == schema.project(["tier"])
        assert sorted(result.output("all").column("uid")) == [1, 2]


class TestMLAdapter:
    def test_train_then_predict(self, mimic_engines):
        adapter = MLAdapter(mimic_engines["ml"])
        features = Table.from_dicts([
            {"pid": i, "x1": float(i % 7), "x2": float(i % 3), "long_stay": i % 2}
            for i in range(120)
        ])
        result = adapter.execute(
            Operator("train", {"model_name": "m", "label_column": "long_stay",
                               "epochs": 3}, ["f"], "ml"), [features])
        assert result["rows"] == 120
        assert 0.0 <= result["metrics"]["accuracy"] <= 1.0
        predictions = adapter.execute(
            Operator("predict", {"model_name": "m"}, ["f"], "ml"), [features])
        assert "prediction" in predictions.schema.names

    def test_train_requires_label(self, mimic_engines):
        adapter = MLAdapter(mimic_engines["ml"])
        features = Table.from_dicts([{"x": 1.0}])
        with pytest.raises(AdapterError):
            adapter.execute(Operator("train", {"model_name": "m",
                                               "label_column": "missing"}, ["f"], "ml"),
                            [features])

    @pytest.mark.parametrize("model_type", ["mlp", "logistic"])
    def test_training_on_no_rows_is_silent(self, mimic_engines, model_type):
        """Zero rows: nothing to normalise, no epoch to score — and no numpy
        ``Mean of empty slice`` on the way to ``rows: 0``, accuracy 0.0."""
        adapter = MLAdapter(mimic_engines["ml"])
        empty = Table(make_schema(("pid", DataType.INT), ("x1", DataType.FLOAT),
                                  ("long_stay", DataType.INT)), [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = adapter.execute(
                Operator("train", {"model_name": "m0", "label_column": "long_stay",
                                   "model_type": model_type, "epochs": 2},
                         ["f"], "ml"), [empty])
        assert result["rows"] == 0
        assert result["metrics"]["accuracy"] == 0.0

    def test_labels_are_read_as_a_column(self, mimic_engines):
        """A NULL label counts as 0, as before."""
        adapter = MLAdapter(mimic_engines["ml"])
        features = Table(make_schema(("x1", DataType.FLOAT), ("y", DataType.INT)),
                         [(float(i), None if i % 2 else 1) for i in range(40)])
        result = adapter.execute(
            Operator("train", {"model_name": "m1", "label_column": "y", "epochs": 1},
                     ["f"], "ml"), [features])
        assert result["rows"] == 40
        assert 0.0 <= result["metrics"]["accuracy"] <= 1.0

    def _train_on_a_and_b(self, adapter, rows=40):
        features = Table(make_schema(("a", DataType.FLOAT), ("b", DataType.FLOAT),
                                     ("y", DataType.INT)),
                         [(float(i), float(i % 5), i % 2) for i in range(rows)])
        return adapter.execute(
            Operator("train", {"model_name": "ab", "label_column": "y", "epochs": 1},
                     ["f"], "ml"), [features])

    def test_predict_refuses_a_table_missing_a_feature_column(self, mimic_engines):
        """Scoring an ``(a, b)`` model on a table of ``a`` alone once fed ``a``
        in twice and returned a prediction per row."""
        adapter = MLAdapter(mimic_engines["ml"])
        assert self._train_on_a_and_b(adapter)["feature_columns"] == ["a", "b"]
        only_a = Table(make_schema(("a", DataType.FLOAT)), [(float(i),) for i in range(5)])
        with pytest.raises(AdapterError, match=r"feature columns \['b'\]"):
            adapter.execute(Operator("predict", {"model_name": "ab"}, ["f"], "ml"), [only_a])

    def test_a_zero_row_retrain_on_other_columns_drops_the_old_statistics(
            self, mimic_engines):
        adapter = MLAdapter(mimic_engines["ml"])
        self._train_on_a_and_b(adapter)
        empty = Table(make_schema(("a", DataType.FLOAT), ("y", DataType.INT)), [])
        adapter.execute(Operator("train", {"model_name": "ab", "label_column": "y"},
                                 ["f"], "ml"), [empty])
        only_a = Table(make_schema(("a", DataType.FLOAT)), [(float(i),) for i in range(5)])
        scored = adapter.execute(Operator("predict", {"model_name": "ab"}, ["f"], "ml"),
                                 [only_a])
        # Unstandardized: the two-column statistics are gone with the columns.
        unstandardized = [[float(i)] for i in range(5)]
        assert scored.column("probability") == [
            float(p) for p in mimic_engines["ml"].predict_proba("ab", unstandardized)]

    def test_predict_unknown_model(self, mimic_engines):
        adapter = MLAdapter(mimic_engines["ml"])
        with pytest.raises(AdapterError):
            adapter.execute(Operator("predict", {"model_name": "ghost"}, ["f"], "ml"),
                            [Table.from_dicts([{"x": 1.0}])])


class TestExecutor:
    def _catalog(self, mimic_engines) -> Catalog:
        catalog = Catalog()
        for key in ("relational", "timeseries", "text", "ml"):
            catalog.register_engine(mimic_engines[key])
        return catalog

    def test_execute_compiled_mimic_program(self, mimic_engines):
        catalog = self._catalog(mimic_engines)
        compilation = Compiler(catalog).compile(build_mimic_program(epochs=1))
        outputs, report = Executor(catalog).execute(compilation.graph)
        assert "stay_model" in outputs
        assert report.total_time_s > 0
        assert report.pipelined_time_s <= report.total_time_s + 1e-9
        assert len(report.records) == len(compilation.graph)
        assert report.time_by_kind() and report.time_by_engine()

    def test_missing_engine_binding_fails(self, mimic_engines):
        catalog = self._catalog(mimic_engines)
        graph = IRGraph("broken")
        node = graph.add(Operator("scan", {"table": "admissions"}))
        graph.mark_output(node.op_id)
        with pytest.raises(ExecutionError):
            Executor(catalog).execute(graph)

    def test_unknown_engine_name_fails(self, mimic_engines):
        catalog = self._catalog(mimic_engines)
        graph = IRGraph("broken")
        node = graph.add(Operator("scan", {"table": "admissions"}, engine="ghost-db"))
        graph.mark_output(node.op_id)
        with pytest.raises(CatalogError):
            Executor(catalog).execute(graph)

    def test_migration_records_simulated_time(self, mimic_engines):
        catalog = self._catalog(mimic_engines)
        graph = IRGraph("migrate")
        scan = graph.add(Operator("scan", {"table": "admissions"}, engine="clinical-db"))
        migrate = graph.add(Operator(
            "migrate", {"source_engine": "clinical-db", "target_engine": "dnn-engine"},
            [scan.op_id], "dnn-engine"))
        graph.mark_output(migrate.op_id)
        executor = Executor(catalog)
        outputs, report = executor.execute(graph)
        migrate_record = [r for r in report.records if r.kind == "migrate"][0]
        assert migrate_record.simulated_time_s > 0
        assert migrate_record.details["strategy"]
        assert len(list(outputs.values())[0]) == 60

class TestConcurrentStageDispatch:
    """Stage siblings run one after another on the calling thread."""

    def _catalog(self, mimic_engines) -> Catalog:
        catalog = Catalog()
        for key in ("relational", "timeseries", "text", "ml"):
            catalog.register_engine(mimic_engines[key])
        return catalog

    def _two_scan_graph(self) -> IRGraph:
        graph = IRGraph("parallel-scans")
        left = graph.add(Operator("scan", {"table": "admissions"}, engine="clinical-db"))
        right = graph.add(Operator("scan", {"table": "admissions"},
                                  engine="clinical-db"))
        graph.mark_output(left.op_id)
        graph.mark_output(right.op_id)
        return graph

    def test_concurrent_outputs_match_serial(self, mimic_engines):
        # Two sibling scans of one stage each give exactly what a direct read
        # of the engine gives.
        catalog = self._catalog(mimic_engines)
        outputs, _ = Executor(catalog).execute(self._two_scan_graph())
        expected = mimic_engines["relational"].scan("admissions").to_dicts()
        assert len(outputs) == 2
        for table in outputs.values():
            assert table.to_dicts() == expected


def _labelled_rows(n: int = 400):
    rng = random.Random(3)
    rows = []
    for pid in range(n):
        a, b = rng.gauss(50, 10), rng.gauss(200, 30)
        rows.append((pid, a, b, int(a + b / 4 > 100)))
    return rows


class TestModelsOutliveTheRun:
    """A model trained in one run is scored in a later one exactly as in
    the run that trained it: its feature columns and z-score statistics live
    with the model in the ML engine, not in a per-run adapter."""

    TRAIN = dict(label_column="y", model_name="m", model_type="logistic",
                 epochs=20, engine="ml")

    def _system(self):
        db = RelationalEngine("db")
        db.load_table("t", Table(make_schema(
            ("pid", DataType.INT), ("a", DataType.FLOAT), ("b", DataType.FLOAT),
            ("y", DataType.INT)), _labelled_rows()))
        return build_cpu_polystore([db, MLEngine("ml")])

    def _probabilities(self, result) -> list[float]:
        return [row["probability"] for row in result.output("scores").to_dicts()]

    @pytest.mark.parametrize("features_only", [False, True])
    def test_separate_run_predict_matches_same_run(self, features_only):
        def rows():
            table = dataset("db").table("t")
            return table.project(["pid", "a", "b"]) if features_only else table

        together = DataflowProgram("together")
        trained = dataset("db").table("t").train(**self.TRAIN)
        together.output("scores", rows().apply(lambda scored, _model: scored, trained)
                        .predict(model_name="m", engine="ml"))
        expected = self._probabilities(self._system().execute(together))

        system = self._system()
        train = DataflowProgram("train")
        train.output("model", dataset("db").table("t").train(**self.TRAIN))
        assert system.execute(train).output("model")["metrics"]["accuracy"] > 0.95
        predict = DataflowProgram("predict")
        predict.output("scores", rows().predict(model_name="m", engine="ml"))
        actual = self._probabilities(system.execute(predict))
        assert len(set(actual)) > 1
        assert actual == pytest.approx(expected)
