"""Tests for the composable dataflow API: expressions, datasets, programs."""

from __future__ import annotations

import pytest

from repro.eide import (
    DataflowProgram,
    Param,
    canonicalize,
    col,
    dataset,
    lit,
)
from repro.eide.expressions import bind_params, find_params
from repro.exceptions import CompilationError
from repro.stores.relational.expressions import (
    BooleanOp,
    ColumnRef,
    Comparison,
    InList,
    Literal,
)


class TestExpressionBuilders:
    def test_comparisons_build_predicates(self):
        predicate = col("age") > 60
        assert isinstance(predicate, Comparison)
        assert predicate.op == ">"
        assert predicate.evaluate({"age": 70}) and not predicate.evaluate({"age": 50})

    def test_equality_sugar_on_col(self):
        predicate = col("region") == "north"
        assert isinstance(predicate, Comparison) and predicate.op == "="
        assert (col("region") != "north").op == "!="

    def test_boolean_connectives(self):
        predicate = (col("age") > 60) & ~(col("region") == "north")
        assert predicate.evaluate({"age": 70, "region": "south"})
        assert not predicate.evaluate({"age": 70, "region": "north"})
        either = (col("a") > 1) | (col("b") > 1)
        assert either.evaluate({"a": 0, "b": 2})

    def test_membership_and_null_checks(self):
        assert col("x").isin(1, 2, 3).evaluate({"x": 2})
        assert col("x").isin([1, 2]).evaluate({"x": 1})
        assert col("x").is_null().evaluate({"x": None})
        assert col("x").is_not_null().evaluate({"x": 5})

    def test_arithmetic_operands(self):
        expr = (col("price") * col("qty")) > lit(10)
        assert expr.evaluate({"price": 3, "qty": 4})

    def test_python_and_or_rejected_loudly(self):
        # `a and b` would silently drop the first conjunct; `1 < col < 5`
        # would drop one bound.  Both must raise instead.
        from repro.exceptions import QueryError

        with pytest.raises(QueryError):
            bool((col("a") > 1) and (col("b") > 2))
        with pytest.raises(QueryError):
            1 < col("a") < 5

    def test_canonicalize_sorts_commutative_operands(self):
        a, b = col("age") > 60, col("pid") < 5
        assert canonicalize(a & b) == canonicalize(b & a)
        assert canonicalize(a | b) == canonicalize(b | a)

    def test_canonicalize_flattens_nested_conjunctions(self):
        a, b, c = col("x") > 1, col("y") > 2, col("z") > 3
        flat = canonicalize((a & b) & c)
        assert isinstance(flat, BooleanOp) and len(flat.operands) == 3

    def test_canonicalize_strips_col_sugar(self):
        predicate = canonicalize(col("age") > 60)
        assert type(predicate.left) is ColumnRef

    def test_params_found_and_bound_inside_expressions(self):
        predicate = (col("age") > Param("min_age", default=60)) & \
            col("region").isin(Param("regions"))
        declared = find_params(predicate)
        assert set(declared) == {"min_age", "regions"}
        bound = bind_params(predicate, lambda p: {"min_age": 50,
                                                  "regions": "north"}[p.name])
        assert bound.evaluate({"age": 55, "region": "north"})

    def test_param_comparison_fingerprint_stability(self):
        one = canonicalize(col("age") > Param("min_age", default=60))
        two = canonicalize(col("age") > Param("min_age", default=60))
        assert repr(one) == repr(two)


class TestDatasetBuilding:
    def test_scan_filter_project_chain(self):
        ds = (dataset("db").table("orders")
              .filter(col("amount") > 10).project("customer_id", "amount"))
        assert ds.node.kind == "project"
        assert ds.node.inputs[0].kind == "filter"
        assert ds.node.inputs[0].inputs[0].params["table"] == "orders"
        # combinators inherit the source engine
        assert ds.node.engine == "db"

    def test_filter_requires_expression(self):
        with pytest.raises(CompilationError):
            dataset("db").table("t").filter("age > 60")

    def test_join_requires_keys(self):
        left, right = dataset("db").table("a"), dataset("db").table("b")
        with pytest.raises(CompilationError):
            left.join(right)
        joined = left.join(right, on="k")
        assert joined.node.params["left_key"] == "k"

    def test_aggregate_kwarg_specs(self):
        ds = dataset("db").table("t").aggregate(
            ["region"], total=("sum", "amount"), n=("count", None))
        specs = ds.node.params["aggregates"]
        assert [(s.function, s.column, s.alias) for s in specs] == \
            [("sum", "amount", "total"), ("count", None, "n")]

    def test_kv_needs_keys_or_prefix(self):
        with pytest.raises(CompilationError):
            dataset("kv").kv()
        ds = dataset("kv").kv(key_prefix="user/")
        assert ds.node.kind == "kv_get"

    def test_text_and_graph_handles(self):
        hits = dataset("notes").text().search("sepsis", top_k=5)
        assert hits.node.kind == "text_search"
        features = dataset("notes").text().keyword_features(["sepsis"],
                                                            doc_prefix="note/")
        assert features.node.kind == "keyword_features"
        nodes = dataset("social").graph().nodes("person")
        assert nodes.node.kind == "graph_nodes"

    def test_apply_accepts_multiple_inputs(self):
        def merge(left, right):
            return left

        a, b = dataset("db").table("a"), dataset("db").table("b")
        ds = a.apply(merge, b)
        assert ds.node.kind == "python_udf" and len(ds.node.inputs) == 2

    def test_ml_heads_default_to_auto_engine(self):
        ds = dataset("db").table("t").train(label_column="y", model_name="m")
        assert ds.node.engine is None  # placement picks the tensor engine


class TestDataflowProgram:
    def _program(self) -> DataflowProgram:
        program = DataflowProgram("p")
        program.output("out", dataset("db").table("t").filter(col("x") > 1))
        return program

    def test_fingerprint_stable_and_structure_sensitive(self):
        assert self._program().fingerprint() == self._program().fingerprint()
        other = DataflowProgram("p")
        other.output("out", dataset("db").table("t").filter(col("x") > 2))
        assert other.fingerprint() != self._program().fingerprint()

    def test_commutative_conjunctions_share_fingerprints(self):
        a, b = col("x") > 1, col("y") < 2
        one = DataflowProgram("p")
        one.output("out", dataset("db").table("t").filter(a & b))
        two = DataflowProgram("p")
        two.output("out", dataset("db").table("t").filter(b & a))
        assert one.fingerprint() == two.fingerprint()

    def test_intermediate_labels_do_not_change_fingerprint(self):
        named = DataflowProgram("p")
        named.output("out", dataset("db").table("t")
                     .named("base").filter(col("x") > 1))
        assert named.fingerprint() == self._program().fingerprint()

    def test_freeze_blocks_output_mutation(self):
        program = self._program().freeze()
        assert program.frozen
        with pytest.raises(CompilationError):
            program.output("late", dataset("db").table("t"))

    def test_duplicate_output_rejected(self):
        program = self._program()
        with pytest.raises(CompilationError):
            program.output("out", dataset("db").table("t"))

    def test_same_dataset_under_two_names_rejected(self):
        # One operator cannot answer under two output names; the program
        # must refuse instead of silently dropping the first name.
        program = DataflowProgram("p")
        ds = dataset("db").table("t").filter(col("x") > 1)
        program.output("first", ds)
        with pytest.raises(CompilationError):
            program.output("second", ds)

    def test_output_does_not_mutate_shared_dataset(self):
        # The same dataset tail may appear in several programs under
        # different output names; building one program must not rename the
        # other's output.
        ds = dataset("db").table("t").filter(col("x") > 1)
        one = DataflowProgram("one")
        one.output("a", ds)
        two = DataflowProgram("two")
        two.output("b", ds)
        assert ds.node.label is None
        assert one.outputs == ["a"] and two.outputs == ["b"]

    def test_declared_params_walk_expression_trees(self):
        program = DataflowProgram("p")
        program.output("out", dataset("db").table("t")
                       .filter(col("x") > Param("min_x", default=0)))
        assert set(program.declared_params()) == {"min_x"}

    def test_describe_renders_trees(self):
        text = self._program().describe()
        assert "scan" in text and "filter" in text and "out" in text

    def test_fingerprint_requires_outputs(self):
        with pytest.raises(CompilationError):
            DataflowProgram("empty").fingerprint()


class TestLegacyConversion:
    """SQL text, the pre-dataflow authoring surface, is one more source."""

    def test_sql_fragments_parse_into_trees(self):
        root = dataset("db").sql("SELECT pid FROM t WHERE age > 60").node
        assert [node.kind for node in root.walk()] == ["scan", "filter", "project"]
        assert {node.engine for node in root.walk()} == {"db"}
        filter_node = [n for n in root.walk() if n.kind == "filter"][0]
        assert isinstance(filter_node.params["predicate"], Comparison)
        with pytest.raises(CompilationError):
            dataset("db").sql("")

    def test_legacy_fingerprint_ignores_sql_formatting(self):
        one = DataflowProgram("p")
        one.output("q", dataset("db").sql("SELECT pid FROM t WHERE age > 60"))
        two = DataflowProgram("p")
        two.output("q", dataset("db").sql("SELECT  pid  FROM  t  WHERE  age > 60"))
        assert one.fingerprint() == two.fingerprint()

    def test_shared_fragment_converts_once(self, relational_engine):
        from repro.catalog import Catalog
        from repro.compiler.frontend import Frontend

        base = dataset("testdb").sql("SELECT pid FROM patients")
        program = DataflowProgram("p")
        program.output("selfjoin", base.join(base, on="pid"))
        catalog = Catalog()
        catalog.register_engine(relational_engine)
        graph = Frontend(catalog).lower(program)
        assert [node.kind for node in graph.nodes()].count("scan") == 1


class TestLiteralHelpers:
    def test_inlist_and_literal_types(self):
        predicate = col("x").isin(1, 2)
        assert isinstance(predicate, InList)
        assert isinstance(lit(5), Literal)
