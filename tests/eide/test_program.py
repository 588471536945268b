"""Tests for program identity (``Param``, ``canonical_value``, freezing), the
program-building checks and the natural-language frontend."""

from __future__ import annotations

import pytest

from repro.eide import (
    DataflowProgram,
    Param,
    canonicalize,
    col,
    compile_natural_language,
    dataset,
    recognize_intent,
)
from repro.eide.program import canonical_value
from repro.exceptions import CompilationError


def _build_demo(name: str = "demo", column: str = "x") -> DataflowProgram:
    a = dataset("db").sql(f"SELECT {column} FROM t").named("a")
    b = dataset(None).timeseries("hr/").named("b")
    program = DataflowProgram(name)
    program.output("c", a.join(b, on="x"))
    return program


class TestFreezeAndFingerprint:
    def test_fingerprint_stable_across_rebuilds(self):
        assert _build_demo().fingerprint() == _build_demo().fingerprint()

    def test_fingerprint_sensitive_to_structure(self):
        base = _build_demo().fingerprint()
        assert _build_demo(name="demo2").fingerprint() != base
        assert _build_demo(column="y").fingerprint() != base

    def test_python_callables_hash_by_identity(self):
        def transform(table):
            return table

        def program(fn) -> DataflowProgram:
            built = DataflowProgram("py")
            built.output("t", dataset("db").table("t").apply(fn))
            return built

        assert canonical_value(transform) == canonical_value(transform)
        assert program(transform).fingerprint() == program(transform).fingerprint()
        assert program(transform).fingerprint() != \
            program(lambda table: table).fingerprint()

    def test_freeze_blocks_mutation(self):
        program = _build_demo().freeze()
        assert program.frozen
        with pytest.raises(CompilationError):
            program.output("late", dataset("db").sql("SELECT x FROM t"))

    def test_declared_params_found_in_nested_values(self):
        program = DataflowProgram("parametrized")
        program.output("b", dataset("ts").timeseries(
            "hr/", end=Param("end", default=None)))
        program.output("k", dataset("kv").kv([Param("key")]))
        declared = program.declared_params()
        assert set(declared) == {"end", "key"}
        assert declared["end"].has_default and not declared["key"].has_default


class TestProgramModel:
    def test_fluent_builder_and_dependencies(self):
        a = dataset("db").sql("SELECT x FROM t")
        b = dataset(None).timeseries("hr/")
        joined = a.join(b, on="x")
        program = DataflowProgram("demo")
        program.output("d", joined.train(label_column="y", model_name="d"))
        assert program.outputs == ["d"]
        (_, root), = program.output_items()
        assert [node.kind for node in root.walk()] == \
            ["scan", "project", "ts_summarize", "join", "train"]
        assert root.inputs == (joined.node,)
        assert joined.node.inputs == (a.node, b.node)

    def test_duplicate_fragment_name_rejected(self):
        program = DataflowProgram("demo")
        program.output("a", dataset("db").sql("SELECT x FROM t"))
        with pytest.raises(CompilationError):
            program.output("a", dataset("db").sql("SELECT y FROM t"))

    def test_join_requires_keys(self):
        a = dataset("db").sql("SELECT x FROM t")
        b = dataset("db").sql("SELECT x FROM u")
        with pytest.raises(CompilationError):
            a.join(b)

    def test_kv_lookup_requires_keys_or_prefix(self):
        with pytest.raises(CompilationError):
            dataset("kv").kv()

    def test_output_requires_known_fragment(self):
        program = DataflowProgram("demo")
        with pytest.raises(CompilationError):
            program.output("nope", "a-fragment-name")

    def test_describe_lists_fragments(self):
        program = DataflowProgram("demo")
        program.output("a", dataset("db").sql("SELECT x FROM t"))
        text = program.describe()
        assert "a:" in text and "scan @ db(table='t')" in text


class TestNaturalLanguage:
    def test_recognize_icu_stay_intent(self):
        intent = recognize_intent(
            "Will patients have a long stay at the hospital when they exit the ICU?")
        assert intent.name == "predict_stay"

    def test_recognize_history_with_patient_slot(self):
        intent = recognize_intent("Show the admission history of patient 42")
        assert intent.name == "patient_history"
        assert intent.slots["patient_id"] == 42

    def test_recognize_top_customers_with_number(self):
        intent = recognize_intent("Who are the top 25 customers by spend?")
        assert intent.name == "top_customers"
        assert intent.slots["number"] == 25

    def test_unknown_text_raises(self):
        with pytest.raises(CompilationError):
            recognize_intent("please water the office plants")

    def test_compile_predict_stay_program_shape(self):
        program = compile_natural_language(
            "Will patients have a long stay at the hospital (> 5 days)?")
        (name, root), = program.output_items()
        assert name == "model" and root.kind == "train"
        assert "scan" in {node.kind for node in root.walk()}

    def test_compile_history_embeds_patient_id(self):
        program = compile_natural_language("admission history of patient 7",
                                           relational_engine="db1")
        (_, root), = program.output_items()
        (filter_node,) = [n for n in root.walk() if n.kind == "filter"]
        assert repr(filter_node.params["predicate"]) == \
            repr(canonicalize(col("pid") == 7))
        assert root.engine == "db1"

    def test_history_without_a_numeric_id_uses_the_default(self):
        # The word after "patient" is not an id unless it is a number: a
        # bare name in the predicate would compare ``pid`` against a column.
        assert "patient_id" not in recognize_intent(
            "list patient admissions please").slots
        program = compile_natural_language("list patient admissions please")
        (_, root), = program.output_items()
        (filter_node,) = [n for n in root.walk() if n.kind == "filter"]
        assert repr(filter_node.params["predicate"]) == \
            repr(canonicalize(col("pid") == 1))

    def test_compile_top_customers_limit(self):
        program = compile_natural_language("top 3 customers this quarter")
        (_, root), = program.output_items()
        assert root.kind == "limit" and root.params["n"] == 3

    def test_compile_recommendation(self):
        program = compile_natural_language("recommend the next best offer for users")
        (_, root), = program.output_items()
        assert "kv_get" in {node.kind for node in root.walk()}
