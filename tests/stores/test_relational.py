"""Tests for the relational engine: SQL, planning, indexes and execution."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import col
from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import QueryError, StorageError
from repro.stores.base import Capability
from repro.stores.relational import RelationalEngine, parse_select
from repro.stores.relational.planner import (
    AggregatePlan,
    FilterPlan,
    JoinPlan,
    build_plan,
)
from repro.stores.relational.storage import HeapStorage


class TestSqlParser:
    def test_simple_select(self):
        statement = parse_select("SELECT a, b FROM t WHERE a > 5 ORDER BY b DESC LIMIT 3")
        assert statement.table == "t"
        assert [i.column for i in statement.items] == ["a", "b"]
        assert statement.order_by == "b" and statement.order_descending
        assert statement.limit == 3

    def test_star_select(self):
        assert parse_select("SELECT * FROM t").select_star

    def test_join_clause(self):
        statement = parse_select(
            "SELECT a FROM t JOIN u ON t.id = u.id WHERE u.x = 'y'")
        assert statement.joins[0].table == "u"
        assert statement.joins[0].left_key == "t.id"

    def test_aggregates_and_group_by(self):
        statement = parse_select(
            "SELECT customer, sum(amount) AS total FROM txns GROUP BY customer")
        assert statement.items[1].aggregate == "sum"
        assert statement.items[1].output_name == "total"
        assert statement.group_by == ["customer"]

    def test_in_and_is_null(self):
        statement = parse_select(
            "SELECT a FROM t WHERE a IN (1, 2, 3) AND b IS NOT NULL")
        assert statement.where is not None

    def test_string_literal_with_quote(self):
        statement = parse_select("SELECT a FROM t WHERE name = 'o''brien'")
        assert "o'brien" in str(statement.where)

    def test_syntax_error(self):
        with pytest.raises(QueryError):
            parse_select("SELECT FROM t")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(QueryError):
            parse_select("SELECT a FROM t garbage garbage")


class TestPlanner:
    def test_plan_shape_for_join_query(self):
        plan = build_plan(parse_select(
            "SELECT a FROM t JOIN u ON t.id = u.id WHERE t.a > 1 ORDER BY a"))
        kinds = [type(node).__name__ for node in plan.walk()]
        assert "SortPlan" in kinds and "FilterPlan" in kinds and "JoinPlan" in kinds

    def test_aggregate_plan(self):
        plan = build_plan(parse_select(
            "SELECT region, count(*) AS n FROM t GROUP BY region"))
        aggregate_nodes = [n for n in plan.walk() if isinstance(n, AggregatePlan)]
        assert aggregate_nodes and aggregate_nodes[0].group_by == ("region",)

    def test_render_is_multiline(self):
        plan = build_plan(parse_select("SELECT a FROM t WHERE a = 1"))
        assert len(plan.render().splitlines()) >= 2


class TestHeapStorage:
    def test_pages_fill_and_grow(self):
        heap = HeapStorage(make_schema(("a", DataType.INT)), page_capacity=4)
        heap.insert_many([(i,) for i in range(10)])
        assert heap.num_pages == 3
        assert heap.num_rows == 10
        assert list(heap.scan()) == [(i,) for i in range(10)]

    def test_fetch_by_rid(self):
        heap = HeapStorage(make_schema(("a", DataType.INT)), page_capacity=2)
        rid = heap.insert((7,))
        assert heap.fetch(*rid) == (7,)

    def test_invalid_rid(self):
        heap = HeapStorage(make_schema(("a", DataType.INT)))
        with pytest.raises(StorageError):
            heap.fetch(3, 0)


class TestEngine:
    def test_capabilities(self, relational_engine: RelationalEngine):
        assert relational_engine.supports(Capability.JOIN)
        assert not relational_engine.supports(Capability.TEXT_SEARCH)

    def test_duplicate_table_rejected(self, relational_engine: RelationalEngine):
        with pytest.raises(StorageError):
            relational_engine.create_table("patients", relational_engine.table_schema("patients"))

    def test_filter_and_order(self, relational_engine: RelationalEngine):
        result = relational_engine.execute_sql(
            "SELECT pid, age FROM patients WHERE age > 60 ORDER BY age DESC")
        assert result.column("age") == [85, 72, 64]

    def test_aggregate_sql(self, relational_engine: RelationalEngine):
        result = relational_engine.execute_sql(
            "SELECT count(*) AS n, avg(age) AS mean_age FROM patients")
        assert result.to_dicts()[0]["n"] == 5

    def test_join_sql(self, relational_engine: RelationalEngine):
        visits = Table.from_dicts([
            {"pid": 1, "ward": "icu"}, {"pid": 1, "ward": "recovery"},
            {"pid": 3, "ward": "icu"},
        ])
        relational_engine.load_table("visits", visits)
        result = relational_engine.execute_sql(
            "SELECT name, ward FROM patients JOIN visits ON patients.pid = visits.pid")
        assert result.num_rows == 3

    def test_index_lookup(self, relational_engine: RelationalEngine):
        relational_engine.create_index("patients", "pid", kind="hash")
        result = relational_engine.index_lookup("patients", "pid", 3)
        assert result.column("name") == ["alan"]

    def test_range_lookup_requires_sorted_index(self, relational_engine: RelationalEngine):
        with pytest.raises(StorageError):
            relational_engine.range_lookup("patients", "age", 50, 80)
        relational_engine.create_index("patients", "age", kind="sorted")
        result = relational_engine.range_lookup("patients", "age", 50, 80)
        assert sorted(result.column("age")) == [51, 64, 72]

    def test_top_k(self, relational_engine: RelationalEngine):
        result = relational_engine.top_k("patients", "score", 2)
        assert result.column("score") == [0.9, 0.7]

    def test_missing_table_raises(self, relational_engine: RelationalEngine):
        with pytest.raises(StorageError):
            relational_engine.scan("nope")

    def test_metrics_recorded(self, relational_engine: RelationalEngine):
        relational_engine.scan("patients")
        operations = [m.operation for m in relational_engine.metrics.records]
        assert "scan" in operations

    def test_empty_result_keeps_schema(self, relational_engine: RelationalEngine):
        result = relational_engine.execute_sql("SELECT pid FROM patients WHERE age > 200")
        assert result.num_rows == 0


class TestUpdatesPublishAtomically:
    """``update_rows`` builds the changed table beside the live one and
    publishes it in one step; a retired table stays as its readers found it."""

    ROWS = 2_000

    def _engine(self) -> RelationalEngine:
        engine = RelationalEngine("cow")
        schema = make_schema(("id", DataType.INT), ("grp", DataType.INT),
                             ("amount", DataType.FLOAT))
        engine.load_table("facts", Table(
            schema, [(i, i % 7, 0.0) for i in range(self.ROWS)]), page_capacity=64)
        return engine

    def test_concurrent_reader_never_sees_a_partial_update(self):
        engine = self._engine()
        everything = col("id") >= 0
        torn: list[set] = []
        scans = 0
        done = threading.Event()

        def reader() -> None:
            nonlocal scans
            while not done.is_set():
                # Each statement sets one amount on every row, so one scan
                # must never mix two amounts.
                amounts = set(engine.scan("facts").column("amount"))
                scans += 1
                if len(amounts) != 1:
                    torn.append(amounts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=reader)
        try:
            thread.start()
            for step in range(1, 40):
                assert len(engine.update_rows(
                    "facts", everything, {"amount": float(step)})) == self.ROWS
        finally:
            done.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert scans > 0
        assert torn == []

    def test_retired_table_is_untouched_by_later_inserts(self):
        engine = self._engine()
        engine.create_index("facts", "grp", kind="hash")
        engine.create_index("facts", "id", kind="sorted")
        retired = engine._stored("facts")
        engine.update_rows("facts", col("id").eq(70), {"amount": 5.0})
        # Enough inserts to fill the open last page and spill into new ones.
        engine.insert("facts", [(self.ROWS + i, 3, 1.0) for i in range(200)])
        live = engine._stored("facts")
        assert live.hash_indexes["grp"] is not retired.hash_indexes["grp"]
        assert len(live.hash_indexes["grp"]) == self.ROWS + 200
        # A reader still holding the retired table sees exactly what it held:
        # no appended row, and every index entry resolves in its heap.
        assert len(list(retired.heap.scan())) == self.ROWS
        assert len(retired.hash_indexes["grp"]) == self.ROWS
        for rid in retired.hash_indexes["grp"].lookup(3):
            assert retired.heap.fetch(*rid)[1] == 3
        assert len(list(retired.sorted_indexes["id"].range(self.ROWS))) == 0

    def test_concurrent_index_reader_survives_updates_and_inserts(self):
        engine = self._engine()
        engine.create_index("facts", "grp", kind="hash")
        failures: list[object] = []
        lookups = 0
        done = threading.Event()

        def reader() -> None:
            nonlocal lookups
            while not done.is_set():
                try:
                    amounts = set(engine.index_lookup("facts", "grp", 3)
                                  .column("amount"))
                except Exception as exc:  # a rid its heap cannot resolve
                    failures.append(exc)
                    return
                lookups += 1
                if len(amounts) != 1:
                    failures.append(amounts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=reader)
        try:
            thread.start()
            next_id = self.ROWS
            for step in range(1, 40):
                engine.update_rows("facts", col("id") >= 0, {"amount": float(step)})
                # Inserts (new pages every few steps) carry the current amount.
                engine.insert("facts", [(next_id + i, 3, float(step))
                                        for i in range(20)])
                next_id += 20
        finally:
            done.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert lookups > 0
        assert failures == []

    def test_index_on_updated_column_answers_with_new_values(self):
        engine = self._engine()
        engine.create_index("facts", "grp", kind="hash")
        engine.create_index("facts", "amount", kind="sorted")
        engine.update_rows("facts", col("id") < 10, {"grp": 99, "amount": 7.5})
        assert sorted(engine.index_lookup("facts", "grp", 99).column("id")) == \
            list(range(10))
        assert 0 not in engine.index_lookup("facts", "grp", 0).column("id")
        assert sorted(engine.range_lookup("facts", "amount", 7.0, 8.0)
                      .column("id")) == list(range(10))
        assert len(engine.index_lookup("facts", "amount", 0.0)) == self.ROWS - 10
        # Inserts after the swap keep maintaining the rebuilt indexes.
        engine.insert("facts", [(self.ROWS, 99, 7.5)])
        assert len(engine.index_lookup("facts", "grp", 99)) == 11
