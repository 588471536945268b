"""Tests for the relational engine: SQL, planning, indexes and execution."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import col
from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import QueryError, StorageError
from repro.stores.relational import RelationalEngine, lower_select, parse_select
from repro.stores.relational.index import HashIndex, SortedIndex
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


def _lowered(sql: str) -> tuple:
    """``lower_select`` folded into plain ``(kind, params, children)`` tuples."""
    return lower_select(parse_select(sql),
                        lambda table: ("scan", {"table": table}, ()),
                        lambda kind, params, *children: (kind, params, children))


def _walk(node: tuple):
    yield node
    for child in node[2]:
        yield from _walk(child)


class TestPlanner:
    def test_plan_shape_for_join_query(self):
        plan = _lowered(
            "SELECT a FROM t JOIN u ON t.id = u.id WHERE t.a > 1 ORDER BY a")
        # Canonical order, top to bottom; the join reads both tables.
        assert [kind for kind, _, _ in _walk(plan)] == [
            "sort", "project", "filter", "join", "scan", "scan"]
        join = next(node for node in _walk(plan) if node[0] == "join")
        assert join[1] == {"left_key": "id", "right_key": "id",
                           "how": "inner", "algorithm": "hash"}
        assert [child[1]["table"] for child in join[2]] == ["t", "u"]

    def test_aggregate_plan(self):
        plan = _lowered("SELECT region, count(*) AS n FROM t GROUP BY region")
        aggregate_nodes = [n for n in _walk(plan) if n[0] == "aggregate"]
        assert aggregate_nodes and aggregate_nodes[0][1]["group_by"] == ["region"]
        (spec,) = aggregate_nodes[0][1]["aggregates"]
        assert (spec.function, spec.column, spec.alias) == ("count", None, "n")

    def test_render_is_multiline(self):
        def render(kind, params, *children):
            return [kind] + ["  " + line for child in children for line in child]

        lines = lower_select(parse_select("SELECT a FROM t WHERE a = 1"),
                             lambda table: [f"scan {table}"], render)
        assert lines == ["project", "  filter", "    scan t"]


class TestHeapStorage:
    def test_pages_fill_and_grow(self):
        heap = HeapStorage(make_schema(("a", DataType.INT)), page_capacity=4)
        heap.insert_many([(i,) for i in range(10)])
        assert heap.num_pages == 3
        assert heap.num_rows == 10
        assert list(heap.scan()) == [(i,) for i in range(10)]

    def test_fetch_by_rid(self):
        heap = HeapStorage(make_schema(("a", DataType.INT)), page_capacity=2)
        [(page, slot, _)] = heap.insert_many([(7,)])
        assert heap.fetch(page, slot) == (7,)

    def test_invalid_rid(self):
        heap = HeapStorage(make_schema(("a", DataType.INT)))
        with pytest.raises(StorageError):
            heap.fetch(3, 0)


class TestEngine:
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

    def test_insert_dicts_orders_by_schema_and_nulls_missing_keys(
            self, relational_engine: RelationalEngine):
        inserted = relational_engine.insert_dicts("patients", [
            {"name": "kathleen", "pid": 6, "score": 0.5, "age": 40},
            {"pid": 7, "age": 29},
        ])
        assert inserted == 2
        rows = [row for row in relational_engine.scan("patients").to_dicts()
                if row["pid"] >= 6]
        assert rows == [{"pid": 6, "age": 40, "name": "kathleen", "score": 0.5},
                        {"pid": 7, "age": 29, "name": None, "score": None}]

    def test_top_k(self, relational_engine: RelationalEngine):
        result = relational_engine.top_k("patients", "score", 2)
        assert result.column("score") == [0.9, 0.7]

    def test_missing_table_raises(self, relational_engine: RelationalEngine):
        with pytest.raises(StorageError):
            relational_engine.scan("nope")

    def test_empty_result_keeps_schema(self, relational_engine: RelationalEngine):
        result = relational_engine.execute_sql("SELECT pid FROM patients WHERE age > 200")
        assert result.num_rows == 0


class TestSqlWhereGoesToTheLeaf:
    """A join-free statement's ``WHERE`` is evaluated inside the page walk."""

    SCHEMA = make_schema(("id", DataType.INT), ("grp", DataType.INT))

    def test_a_selective_statement_examines_the_pages_that_can_match(self, heap_calls):
        engine = RelationalEngine("skip")
        engine.load_table("facts", Table(self.SCHEMA, [(i, i % 7) for i in range(50_000)]))
        pages = engine.table_statistics("facts")["pages"]
        result = engine.execute_sql("SELECT id, grp FROM facts WHERE id < 300")
        assert result.rows == [(i, i % 7) for i in range(300)]
        (select,) = [call for call in heap_calls if call.method == "select"]
        # The two pages of the range, and the open last page.
        assert select.pages_examined <= 3
        assert select.pages_examined + select.pages_skipped == pages
        engine.execute_sql("SELECT count(*) AS n FROM facts")
        assert heap_calls.last("select").pages_skipped == 0

    def test_an_unknown_where_column_is_rejected_even_over_no_rows(self):
        engine = RelationalEngine("none")
        engine.create_table("facts", self.SCHEMA)
        assert engine.execute_sql("SELECT id FROM facts WHERE id < 3").rows == []
        with pytest.raises(QueryError, match="nowhere"):
            engine.execute_sql("SELECT id FROM facts WHERE nowhere < 3")
        engine.create_table("tags", make_schema(("id", DataType.INT)))
        with pytest.raises(QueryError, match="nowhere"):
            engine.execute_sql(
                "SELECT grp FROM facts JOIN tags ON facts.id = tags.id WHERE nowhere < 3")


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


class TestWritesCostThePagesTheyTouch:
    """An update or delete copies the pages holding a match and shares the
    rest with the table it replaces — checked by counts, not timings."""

    ROWS = 50_000

    SCHEMA = make_schema(("id", DataType.INT), ("grp", DataType.INT),
                         ("amount", DataType.FLOAT))

    def _table(self) -> Table:
        return Table(self.SCHEMA, [(i, i % 7, 0.0) for i in range(self.ROWS)])

    def test_update_shares_untouched_pages_and_indexes(self, monkeypatch, heap_calls):
        engine = RelationalEngine("cow")
        engine.load_table("facts", self._table(), page_capacity=256)
        engine.create_index("facts", "grp", kind="hash")
        engine.create_index("facts", "id", kind="sorted")
        engine.create_index("facts", "amount", kind="sorted")
        pages = engine.table_statistics("facts")["pages"]
        loads: list[str] = []
        for kind in (HashIndex, SortedIndex):
            monkeypatch.setattr(
                kind, "bulk_load",
                lambda self, entries, _load=kind.bulk_load:
                    (loads.append(self.column), _load(self, entries))[1])
        in_range = (col("id") >= 20_000) & (col("id") < 20_100)
        assert len(engine.update_rows("facts", in_range, {"amount": 5.0})) == 100
        update = heap_calls.last("rewrite")
        # 100 consecutive rows lie on at most 2 pages; the open last page is
        # the one page a sibling never shares.
        assert update.pages_copied <= 2 + 1
        assert update.pages_copied + update.pages_shared == pages
        # Only the index whose keys changed is loaded again.
        assert loads == ["amount"]
        assert len(engine.index_lookup("facts", "grp", 3)) == self.ROWS // 7 + 1
        assert len(engine.range_lookup("facts", "amount", 5.0, 5.0)) == 100
        assert engine.range_lookup("facts", "id", 20_050, 20_050).rows == \
            [(20_050, 20_050 % 7, 5.0)]

    def test_each_partition_shares_its_untouched_pages(self, heap_calls):
        engine = RelationalEngine("facts4", partitions=4)
        engine.load_table("facts", self._table(), shard_key="id", page_capacity=256)
        pages = engine.table_statistics("facts")["pages"]
        in_range = (col("id") >= 20_000) & (col("id") < 20_100)
        assert len(engine.update_rows("facts", in_range, {"amount": 5.0})) == 100
        update = heap_calls.last("rewrite")
        # Each partition's rows are consecutive: its share of the 100 lies on
        # at most 2 of its pages, and the open last page is always copied.
        assert update.pages_copied <= 4 * 2 + 1
        assert update.pages_copied + update.pages_shared == pages

    def test_delete_drops_emptied_pages_and_copies_the_boundary(self, heap_calls):
        engine = RelationalEngine("cow")
        engine.load_table("facts", self._table(), page_capacity=256)
        pages = engine.table_statistics("facts")["pages"]
        assert len(engine.delete_rows("facts", col("id") < 5_000)) == 5_000
        delete = heap_calls.last("rewrite")
        # 5 000 = 19 whole pages and part of the 20th.
        assert delete.pages_copied <= 1 + 1
        assert engine.table_statistics("facts")["pages"] == pages - 19
        assert delete.pages_copied + delete.pages_shared == pages - 19
        assert engine.scan("facts").column("id") == list(range(5_000, self.ROWS))

    def test_an_under_full_page_that_becomes_the_last_one_is_not_shared(self, heap_calls):
        engine = RelationalEngine("cow")
        schema = make_schema(("id", DataType.INT))
        engine.load_table("t", Table(schema, [(i,) for i in range(12)]),
                          page_capacity=4)
        engine.delete_rows("t", col("id").eq(5))      # page 1 keeps 4, 6, 7
        retired = engine._stored("t")
        engine.delete_rows("t", col("id") >= 8)       # drops page 2 only
        delete = heap_calls.last("rewrite")
        assert delete.heap is retired.heap
        assert (delete.pages_copied, delete.pages_shared, delete.pages_examined,
                delete.pages_skipped) == (1, 1, 1, 2)
        engine.insert("t", [(20,), (21,)])
        assert engine.scan("t").column("id") == [0, 1, 2, 3, 4, 6, 7, 20, 21]
        assert engine.table_statistics("t")["pages"] == 3
        assert [row[0] for row in retired.heap.scan()] == \
            [0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11]

    def test_a_statement_matching_nothing_publishes_nothing(self, heap_calls):
        engine = RelationalEngine("cow")
        engine.load_table("facts", self._table(), page_capacity=256)
        before = engine._stored("facts")
        assert engine.update_rows("facts", col("id") < 0, {"amount": 1.0}) == []
        assert engine.delete_rows("facts", col("id") < 0) == []
        assert engine._stored("facts") is before
        # Each rewrite's sibling, with its copy of the open last page, is dropped.
        published = engine._stored("facts").heap
        assert sum(call.pages_copied for call in heap_calls
                   if call.sibling is published) == 0
        assert len(heap_calls) == 2


class TestCreateIndexSerializesWithWrites:
    """``create_index`` takes the write lock: it neither loads from a heap an
    insert is growing nor attaches to a table an update is about to retire."""

    ROUNDS = 8

    def _round(self) -> None:
        engine = RelationalEngine("ddl")
        schema = make_schema(("id", DataType.INT), ("grp", DataType.INT),
                             ("amount", DataType.FLOAT))
        engine.load_table("facts", Table(
            schema, [(i, i % 5, 0.0) for i in range(1_500)]), page_capacity=64)
        failures: list[BaseException] = []
        started = threading.Barrier(3)
        done = threading.Event()

        def writer(first_id: int) -> None:
            try:
                started.wait(timeout=30)
                while not done.is_set():
                    engine.insert("facts", [(first_id + i, (first_id + i) % 5, 0.0)
                                            for i in range(10)])
                    engine.update_rows("facts", col("id").eq(first_id),
                                       {"amount": 1.0})
                    first_id += 10
            except BaseException as exc:
                failures.append(exc)
                raise

        threads = [threading.Thread(target=writer, args=(base,))
                   for base in (1_000_000, 2_000_000)]
        try:
            for thread in threads:
                thread.start()
            started.wait(timeout=30)
            engine.create_index("facts", "grp", kind="hash")
            engine.create_index("facts", "id", kind="sorted")
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        scanned = engine.scan("facts")
        for group in range(5):
            assert len(engine.index_lookup("facts", "grp", group)) == \
                scanned.column("grp").count(group)
        assert len(engine.range_lookup("facts", "id")) == len(scanned)

    def test_index_created_beside_inserts_and_updates_misses_no_row(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(self.ROUNDS):
                self._round()
        finally:
            sys.setswitchinterval(interval)


class TestIndexesAnswerAsAScan:
    SCHEMA = make_schema(("k", DataType.STRING), ("v", DataType.INT))

    def test_a_sorted_index_over_keys_that_do_not_order_is_refused(self):
        engine = RelationalEngine("db")
        engine.create_table("t", self.SCHEMA)
        engine.insert("t", [("a", 1), (3, 2)])
        metas = []
        engine._durability_meta = metas.append
        with pytest.raises(StorageError):
            engine.create_index("t", "k", kind="sorted")
        assert not engine.has_index("t", "k") and metas == []
        assert engine.scan("t", predicate=col("v") == 2).rows == [(3, 2)]
        engine.insert("t", [("b", 3)])
        assert len(engine.scan("t")) == 3
        engine.create_index("t", "k", kind="hash")
        assert engine.index_lookup("t", "k", 3).rows == [(3, 2)]
        assert metas == [("create_index", {"table": "t", "column": "k", "kind": "hash"})]

    @pytest.mark.parametrize("kind", ["hash", "sorted"])
    def test_a_lookup_of_none_finds_what_the_scan_finds(self, kind):
        engine = RelationalEngine("db")
        engine.create_table("t", self.SCHEMA)
        engine.insert("t", [("a", 1), (None, 2), ("b", 3)])
        engine.create_index("t", "k", kind=kind)
        scanned = engine.scan("t", predicate=col("k") == None).rows  # noqa: E711
        assert scanned == []
        assert engine.index_lookup("t", "k", None).rows == scanned
        assert engine.index_lookup("t", "k", "b").rows == [("b", 3)]
