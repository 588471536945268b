"""Tests for volcano operators and expressions."""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.stores.relational.expressions import (
    and_,
    column,
    compare,
    literal,
    not_,
    or_,
    split_conjunction,
)
from repro.stores.relational.operators import (
    AggregateSpec,
    Filter,
    GroupByAggregate,
    HashJoin,
    Limit,
    Project,
    Sort,
    TableScan,
    TopK,
)

ROWS = [
    {"pid": 1, "age": 72, "ward": "icu", "cost": 100.0},
    {"pid": 2, "age": 35, "ward": "general", "cost": 20.0},
    {"pid": 3, "age": 85, "ward": "icu", "cost": 250.0},
    {"pid": 4, "age": 51, "ward": "recovery", "cost": 80.0},
]


class TestExpressions:
    def test_comparison_and_boolean(self):
        predicate = and_(compare("age", ">", 40), compare("ward", "=", "icu"))
        assert predicate.evaluate(ROWS[0])
        assert not predicate.evaluate(ROWS[1])

    def test_or_and_not(self):
        predicate = or_(compare("age", "<", 40), not_(compare("ward", "=", "icu")))
        assert predicate.evaluate(ROWS[1])
        assert not predicate.evaluate(ROWS[0])

    def test_null_comparison_is_false(self):
        assert not compare("age", ">", 10).evaluate({"age": None})

    def test_referenced_columns(self):
        predicate = and_(compare("age", ">", 40), compare("cost", "<", 200))
        assert predicate.referenced_columns() == {"age", "cost"}

    def test_split_conjunction(self):
        predicate = and_(compare("a", "=", 1), compare("b", "=", 2), compare("c", "=", 3))
        assert len(split_conjunction(predicate)) == 3

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            compare("a", "~", 1)

    def test_selectivity_bounds(self):
        predicate = or_(compare("a", "=", 1), compare("b", ">", 2))
        assert 0.0 < predicate.estimated_selectivity() <= 1.0

    def test_unknown_column_raises(self):
        with pytest.raises(QueryError):
            column("missing").evaluate({"a": 1})

    def test_literal_str(self):
        assert str(literal("x")) == "'x'"


class TestOperators:
    def test_filter(self):
        result = Filter(TableScan(ROWS), compare("ward", "=", "icu")).execute()
        assert [r["pid"] for r in result] == [1, 3]

    def test_project_unknown_column(self):
        with pytest.raises(QueryError):
            Project(TableScan(ROWS), ["nope"]).execute()

    def test_limit_and_sort(self):
        result = Limit(Sort(TableScan(ROWS), ["age"], descending=True), 2).execute()
        assert [r["age"] for r in result] == [85, 72]

    def test_top_k_equivalent_to_sort_limit(self):
        top = TopK(TableScan(ROWS), "cost", 2).execute()
        assert [r["pid"] for r in top] == [3, 1]

    def test_hash_join_inner(self):
        right = [{"pid": 1, "payer": "a"}, {"pid": 3, "payer": "b"}]
        result = HashJoin(TableScan(ROWS), TableScan(right), "pid", "pid").execute()
        assert {r["pid"] for r in result} == {1, 3}
        assert all("payer" in r for r in result)

    def test_hash_join_left_keeps_unmatched(self):
        right = [{"pid": 1, "payer": "a"}]
        result = HashJoin(TableScan(ROWS), TableScan(right), "pid", "pid",
                          how="left").execute()
        assert len(result) == 4
        assert any(r["payer"] is None for r in result)

    def test_group_by_aggregate(self):
        result = GroupByAggregate(
            TableScan(ROWS), ["ward"],
            [AggregateSpec("count", None, "n"), AggregateSpec("avg", "cost", "avg_cost")],
        ).execute()
        by_ward = {r["ward"]: r for r in result}
        assert by_ward["icu"]["n"] == 2
        assert by_ward["icu"]["avg_cost"] == pytest.approx(175.0)

    def test_global_aggregate_on_empty_input(self):
        result = GroupByAggregate(TableScan([]), [],
                                  [AggregateSpec("count", None, "n")]).execute()
        assert result == [{"n": 0}]

    def test_aggregates_over_several_columns_of_a_streamed_input(self):
        # A filter hands over a one-shot iterator; several aggregates read
        # it, and all but count(*) skip nulls.
        rows = ROWS + [{"pid": 5, "age": None, "ward": "icu", "cost": None}]
        result = GroupByAggregate(
            Filter(TableScan(rows), compare("ward", "!=", "general")),
            ["ward"],
            [AggregateSpec("count", None, "n"), AggregateSpec("count", "age", "aged"),
             AggregateSpec("sum", "cost", "total"), AggregateSpec("max", "age", "oldest"),
             AggregateSpec("min", "cost", "cheapest")],
        ).execute()
        assert result == [
            {"ward": "icu", "n": 3, "aged": 2, "total": 350.0, "oldest": 85,
             "cheapest": 100.0},
            {"ward": "recovery", "n": 1, "aged": 1, "total": 80.0, "oldest": 51,
             "cheapest": 80.0},
        ]

    def test_aggregate_of_only_nulls_is_null_and_empty_global_still_answers(self):
        rows = [{"g": 1, "v": None}, {"g": 1, "v": None}]
        specs = [AggregateSpec("sum", "v", "s"), AggregateSpec("count", "v", "c")]
        assert GroupByAggregate(TableScan(rows), ["g"], specs).execute() == [
            {"g": 1, "s": None, "c": 0}]
        assert GroupByAggregate(TableScan([]), [], specs).execute() == [
            {"s": None, "c": 0}]
        assert GroupByAggregate(TableScan([]), ["g"], specs).execute() == []

    def test_invalid_aggregate_function(self):
        with pytest.raises(QueryError):
            AggregateSpec("median", "cost", "m")
