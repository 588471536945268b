"""Page summaries: skipping a page never changes an answer, only its cost.

The heap keeps a lazily computed ``(min, max)`` per column of every page
that can no longer change, and ``scan(predicate=...)`` / ``update_rows`` /
``delete_rows`` evaluate the predicate only on the pages those summaries do
not rule out.  There is no switch that turns skipping off: the references
below are plain Python filters over ``snapshot_scan`` rows.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro import col
from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import QueryError
from repro.ir.nodes import Operator
from repro.middleware.adapters import adapter_for
from repro.stores.changelog import table_scope
from repro.stores.relational import RelationalEngine
from repro.stores.relational.expressions import (
    _ARITHMETIC,
    _COMPARISONS,
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    page_test,
)
from repro.stores.relational.storage import Page

# -- the differential ---------------------------------------------------------------------

SCHEMA = make_schema(("a", DataType.INT), ("x", DataType.FLOAT),
                     ("s", DataType.STRING))
SCOPE = table_scope("t")
#: One NaN object throughout, so tuples holding it still compare equal.
NAN = float("nan")
INF = float("inf")

# Small domains: duplicates are the common case, pages often hold one value.
_ints = st.one_of(st.none(), st.booleans(), st.integers(-2, 12))
_floats = st.sampled_from([None, NAN, INF, -INF, -1.0, 0.0, 1.5, 2.0, 7.25])
_strings = st.sampled_from([None, "", "a", "ab", "b", "z"])
_rows = st.tuples(_ints, _floats, _strings)
#: Literals of any column's type: half of them are of the wrong one.
_values = st.one_of(_ints, _floats, _strings)
_columns = st.sampled_from(SCHEMA.names).map(ColumnRef)
_literals = _values.map(Literal)
_simple = st.one_of(_columns, _literals)
_operands = st.one_of(_simple, st.builds(
    Arithmetic, st.sampled_from(sorted(_ARITHMETIC)), _simple, _simple))
_ops = st.sampled_from(sorted(_COMPARISONS))
_lists = st.lists(_values, max_size=3).map(tuple)
_leaves = st.one_of(
    # The shapes that constrain a page, so that skipping happens a lot ...
    st.builds(Comparison, _ops, _columns, _literals),
    st.builds(Comparison, _ops, _literals, _columns),
    st.builds(InList, _columns, _lists),
    # ... and every other shape, which must not.
    st.builds(Comparison, _ops, _operands, _operands),
    st.builds(InList, _operands, _lists),
    st.builds(IsNull, _operands, st.booleans()),
    st.just(Comparison("<", ColumnRef("nope"), Literal(1))),
)
_predicates = st.recursive(_leaves, lambda inner: st.one_of(
    st.builds(BooleanOp, st.sampled_from(["and", "or"]),
              st.lists(inner, min_size=2, max_size=3).map(tuple)),
    inner.map(lambda operand: BooleanOp("not", (operand,)))), max_leaves=6)
_updates = st.fixed_dictionaries(
    {}, optional={"a": _ints, "x": _floats, "s": _strings}).filter(bool)


def _outcome(compute):
    """``("ok", value)``, or ``("raised", exception type)``."""
    try:
        return "ok", compute()
    except Exception as exc:  # the differential compares what was raised
        return "raised", type(exc)


class PageSkipping(RuleBasedStateMachine):
    @initialize(capacity=st.integers(2, 8))
    def create(self, capacity):
        self.capacity = capacity
        self.engine = RelationalEngine("live")
        self.engine.changelog.register(self)  # _logged reads each write's batch
        self.engine.create_table("t", SCHEMA, page_capacity=capacity)

    def _heap_rows(self) -> list[tuple]:
        return self.engine.snapshot_scan("t")[0].rows

    def _logged(self, seq_before: int) -> list[tuple]:
        batches, complete = self.engine.changelog.read_since(seq_before, SCOPE)
        assert complete and len(batches) <= 1
        return list(batches[0].entries) if batches else []

    def _matching(self, predicate):
        """The reference: the predicate over every row, one at a time."""
        rows = self._heap_rows()
        return rows, _outcome(lambda: [
            bool(flag) for flag in map(predicate.compile(SCHEMA), rows)])

    @rule(rows=st.lists(_rows, min_size=1, max_size=9))
    def insert(self, rows):
        self.engine.insert("t", rows)

    @rule(start=st.integers(-2, 12), count=st.integers(1, 20), x=_floats)
    def insert_ascending(self, start, count, x):
        # Sorted runs: whole pages fall outside a range predicate.
        self.engine.insert("t", [(start + i, x, "ab"[:i % 3]) for i in range(count)])

    @rule(filler=_rows)
    def insert_a_page_of_nulls(self, filler):
        pages = self.engine._stored("t").heap._pages
        free = self.capacity - len(pages[-1].rows) if pages else 0
        self.engine.insert("t", [filler] * free + [(None, None, None)] * self.capacity)
        assert pages[-1].rows == [(None, None, None)] * self.capacity

    @rule(predicate=_predicates,
          columns=st.one_of(st.none(), st.lists(st.sampled_from(SCHEMA.names),
                                                min_size=1, max_size=2, unique=True)))
    def scan(self, predicate, columns):
        rows, expected = self._matching(predicate)
        if not rows:
            expected = "ok", []  # a read of an empty table does not bind its predicate
        if expected[0] == "ok":
            keep = [SCHEMA.index_of(name) for name in columns or SCHEMA.names]
            expected = "ok", [tuple(row[i] for i in keep)
                              for row, flag in zip(rows, expected[1]) if flag]
        assert _outcome(lambda: self.engine.scan(
            "t", columns, predicate=predicate).rows) == expected

    @rule(predicate=_predicates, updates=_updates)
    def update(self, predicate, updates):
        rows, expected = self._matching(predicate)
        head = self.engine.changelog.latest_seq
        pairs = []
        if expected[0] == "ok":
            for slot, flag in enumerate(expected[1]):
                if flag:
                    old = rows[slot]
                    rows[slot] = tuple(updates.get(name, value)
                                       for name, value in zip(SCHEMA.names, old))
                    pairs.append((old, rows[slot]))
            expected = "ok", pairs
        assert _outcome(lambda: self.engine.update_rows(
            "t", predicate, updates)) == expected
        assert self._heap_rows() == rows
        assert self._logged(head) == [
            entry for old, new in pairs for entry in ((old, -1), (new, 1))]

    @rule(predicate=_predicates)
    def delete(self, predicate):
        rows, expected = self._matching(predicate)
        head = self.engine.changelog.latest_seq
        deleted = []
        if expected[0] == "ok":
            deleted = [row for row, flag in zip(rows, expected[1]) if flag]
            rows = [row for row, flag in zip(rows, expected[1]) if not flag]
            expected = "ok", deleted
        assert _outcome(lambda: self.engine.delete_rows("t", predicate)) == expected
        assert self._heap_rows() == rows
        assert self._logged(head) == [(row, -1) for row in deleted]


PageSkipping.TestCase.settings = settings(
    max_examples=120, stateful_step_count=30, deadline=None)
TestPageSkipping = PageSkipping.TestCase


class TestWhatASummaryHolds:
    def test_none_and_nan_are_left_out_and_mixed_types_are_unknown(self):
        page = Page(8, [(None, NAN, "b"), (True, -INF, None), (3, 2.0, "a"),
                        (0, INF, 7)])
        assert page.bounds(0) == (0, 3)
        assert page.bounds(1) == (-INF, INF)
        assert page.bounds(2) is None
        assert Page(2, [(None, NAN)] * 2).bounds(0) is None
        assert Page(2, [(None, NAN)] * 2).bounds(1) is None

    @pytest.mark.parametrize("predicate, may_match", [
        (col("a") < 4, False), (col("a") <= 4, True), (col("a") > 9, False),
        (col("a") >= 9, True), (col("a").eq(3), False), (col("a").eq(6.0), True),
        (Comparison(">", Literal(4), ColumnRef("a")), False),
        (Comparison("<=", Literal(9), ColumnRef("a")), True),
        (col("a").isin(1, 2, 10), False), (col("a").isin(1, 9), True),
        (col("a").isin(), False), (col("a").isin(None, NAN), True),
        (col("a").eq(NAN), True), (col("a") < NAN, False),
        # No constraint: a wrong-typed or null literal, unknown bounds.
        (col("a") < "k", True), (col("a") < None, True), (col("s") > "zz", True),
        # Only the leading constraining conjuncts count: ``a != 0`` could
        # have raised on a row before ``a > 9`` turned it down.
        ((col("a") >= 4) & (col("a") > 9), False),
        ((col("a") >= 4) & col("a").ne(0) & (col("a") > 9), True),
    ])
    def test_which_predicates_rule_a_page_out(self, predicate, may_match):
        schema = make_schema(("a", DataType.INT), ("s", DataType.STRING))
        page = Page(4, [(4, "a"), (9, 1), (None, None), (6, "b")])
        assert page_test(predicate, schema)(page) is may_match

    @pytest.mark.parametrize("predicate", [
        col("a").ne(3), col("a").ne(3) & (col("a") > 5), ~(col("a") < 3),
        (col("a") < 3) | (col("a") > 5),
        col("a").is_null(), col("a") + 1 > 3, col("a") < col("b"),
        (col("a") + 1).isin(3)])
    def test_other_shapes_build_no_test_at_all(self, predicate):
        schema = make_schema(("a", DataType.INT), ("b", DataType.INT))
        assert page_test(predicate, schema) is None


# -- counts: what a statement examines, copies and reports ------------------------------------


@pytest.fixture
def summaries(monkeypatch) -> list[Page]:
    """Every page a summary is taken of while the test runs."""
    taken: list[Page] = []
    bounds = Page.bounds
    monkeypatch.setattr(Page, "bounds", lambda page, position: (
        taken.append(page), bounds(page, position))[1])
    return taken


class TestAStatementCostsThePagesThatCanMatch:
    ROWS = 50_000
    SCHEMA = make_schema(("id", DataType.INT), ("grp", DataType.INT),
                         ("amount", DataType.FLOAT))

    def _table(self) -> Table:
        return Table(self.SCHEMA, [(i, i % 7, float(i % 1000))
                                   for i in range(self.ROWS)])

    def test_a_range_update_examines_the_pages_of_its_range(self, heap_calls):
        engine = RelationalEngine("skip")
        engine.load_table("facts", self._table())
        pages = engine.table_statistics("facts")["pages"]
        in_range = (col("id") >= 20_000) & (col("id") < 20_100)
        assert len(engine.update_rows("facts", in_range, {"amount": 5.0})) == 100
        update = heap_calls.last("rewrite")
        # The one or two pages of the range, and the open last page.
        assert update.pages_examined <= 3
        assert update.pages_copied <= 2
        assert update.pages_examined + update.pages_skipped == pages

    def test_each_partition_examines_the_pages_of_its_part_of_the_range(self, heap_calls):
        engine = RelationalEngine("skip4", partitions=4)
        engine.load_table("facts", self._table(), shard_key="id")
        pages = engine.table_statistics("facts")["pages"]
        in_range = (col("id") >= 20_000) & (col("id") < 20_100)
        assert len(engine.update_rows("facts", in_range, {"amount": 5.0})) == 100
        update = heap_calls.last("rewrite")
        # One or two pages of each partition's part of the range, the three
        # pages where two partitions meet (their ids span both), the last page.
        assert update.pages_examined <= 4 * 2 + 3 + 1
        assert update.pages_examined + update.pages_skipped == pages

    @pytest.mark.parametrize("k", [1, 7, 40])
    def test_a_trim_examines_the_pages_it_trims(self, k, heap_calls):
        engine = RelationalEngine("skip")
        engine.load_table("facts", self._table())
        assert len(engine.delete_rows("facts", col("id") < k * 256)) == k * 256
        assert heap_calls.last("rewrite").pages_examined <= k + 1
        assert engine.scan("facts").column("id") == list(range(k * 256, self.ROWS))

    def test_a_predicate_no_page_rules_out_skips_nothing(self, heap_calls):
        engine = RelationalEngine("skip")
        table = self._table()
        engine.load_table("facts", table)
        result = engine.scan("facts", predicate=col("amount") > 100.0)
        assert result.rows == [row for row in table.rows if row[2] > 100.0]
        assert result.schema == self.SCHEMA
        select = heap_calls.last("select")
        assert select.pages_skipped == 0
        assert select.rows_in == self.ROWS

    def test_a_single_page_table_never_takes_a_summary(self, summaries, heap_calls):
        engine = RelationalEngine("point")
        engine.load_table("facts", Table(self.SCHEMA, self._table().rows[:200]))
        in_range = (col("id") >= 20) & (col("id") < 30)
        assert len(engine.scan("facts", predicate=in_range)) == 10
        assert heap_calls.last("select").pages_examined == 1
        assert len(engine.update_rows("facts", in_range, {"amount": 5.0})) == 10
        assert heap_calls.last("rewrite").pages_examined == 1
        assert len(engine.delete_rows("facts", in_range)) == 10
        assert heap_calls.last("rewrite").pages_examined == 1
        assert summaries == []

    def test_a_scan_examines_the_pages_that_can_hold_its_rows(self, heap_calls):
        engine = RelationalEngine("skip")
        engine.load_table("facts", self._table())
        result = engine.scan("facts", ["grp"], col("id").eq(20_000))
        assert result.rows == [(20_000 % 7,)]
        select = heap_calls.last("select")
        # The page holding the id, and the last page.
        assert (select.pages_examined, select.pages_skipped) == (
            2, engine.table_statistics("facts")["pages"] - 2)
        assert select.heap is engine._stored("facts").heap
        assert select.rows_in == 256 + self.ROWS % 256
        assert result.estimated_bytes() < self.SCHEMA.row_width()


class TestTheScanLeafFiltersBeforeItProjects:
    """A leaf whose ``columns`` leave out a column its predicate reads."""

    SCHEMA = make_schema(("a", DataType.INT), ("b", DataType.INT))
    ROWS = [(i, i % 3) for i in range(40)]

    def _node(self, engine: str) -> Operator:
        return Operator(kind="scan", engine=engine, params={
            "table": "t", "columns": ["a"], "predicate": col("b") == 1})

    def test_on_one_engine(self):
        engine = RelationalEngine("narrow")
        engine.load_table("t", Table(self.SCHEMA, self.ROWS), page_capacity=8)
        result = adapter_for(engine).execute(self._node("narrow"), [])
        assert result.schema.names == ("a",)
        assert result.column("a") == [a for a, b in self.ROWS if b == 1]

    def test_on_four_partitions(self):
        engine = RelationalEngine("narrow4", partitions=4)
        engine.load_table("t", Table(self.SCHEMA, self.ROWS), shard_key="a",
                          page_capacity=8)
        result = adapter_for(engine).execute(self._node("narrow4"), [])
        assert result.schema.names == ("a",)
        assert sorted(result.column("a")) == [a for a, b in self.ROWS if b == 1]

    def test_an_empty_table_does_not_bind_the_predicate(self):
        """As before skipping: a filter over nothing is nothing, whatever it names."""
        node = Operator(kind="scan", engine="none", params={
            "table": "t", "predicate": col("nowhere") == 1})
        engine = RelationalEngine("none")
        engine.load_table("t", Table(self.SCHEMA, []))
        assert adapter_for(engine).execute(node, []).rows == []
        engine.insert("t", [(1, 1)])
        with pytest.raises(QueryError):
            adapter_for(engine).execute(node, [])


# -- a summary is only ever taken of a page that can no longer change -------------------------


class TestOnlyClosedPagesAreSummarised:
    SCHEMA = make_schema(("id", DataType.INT), ("flag", DataType.INT))

    def test_a_page_is_summarised_once_it_is_interior_not_while_it_is_last(
            self, monkeypatch):
        engine = RelationalEngine("open")
        engine.create_table("t", self.SCHEMA, page_capacity=4)
        bounds = Page.bounds

        def checked(page, position):
            assert page is not engine._stored("t").heap._pages[-1]
            return bounds(page, position)
        monkeypatch.setattr(Page, "bounds", checked)

        engine.insert("t", [(i, 0) for i in range(6)])
        first, open_page = engine._stored("t").heap._pages
        assert engine.scan("t", predicate=col("id") >= 5).column("id") == [5]
        assert engine.update_rows("t", col("id").eq(4), {"flag": 1}) == \
            [((4, 0), (4, 1))]
        assert first._bounds == {0: (0, 3)} and open_page._bounds == {}
        # The update copied the open page; the copy fills and a page follows it.
        engine.insert("t", [(i, 0) for i in range(6, 10)])
        filled = engine._stored("t").heap._pages[1]
        assert filled is not open_page and filled._bounds == {}
        assert engine.scan("t", predicate=col("id").eq(7)).rows == [(7, 0)]
        assert filled._bounds == {0: (4, 7)}
        assert engine.delete_rows("t", col("id") > 8) == [(9, 0)]
        assert engine.scan("t", predicate=col("id") >= 7).column("id") == [7, 8]
        # A retired table's open page is never anybody's interior page.
        assert open_page._bounds == {}

    def test_readers_see_a_filter_of_some_consistent_state(self):
        engine = RelationalEngine("busy")
        engine.create_table("t", self.SCHEMA, page_capacity=16)
        batch, batches, keep = 10, 2000, 600
        engine.insert("t", [(i, 0) for i in range(keep)])
        cutoffs = {0}
        inserted = [keep - 1]
        failures: list[str] = []
        done = threading.Event()

        def write() -> None:
            try:
                for number in range(batches):
                    head = keep + number * batch
                    engine.insert("t", [(head + i, 0) for i in range(batch)])
                    inserted[0] = head + batch - 1
                    if number % 5 == 4:
                        low = head - 37
                        updated = engine.update_rows(
                            "t", (col("id") >= low) & (col("id") < low + 25),
                            {"flag": number})
                        if [old[0] for old, _ in updated] != list(range(low, low + 25)):
                            failures.append(f"update at {low} touched {updated}")
                    if number % 12 == 11:
                        cutoff = head + batch - keep
                        cutoffs.add(cutoff)
                        engine.delete_rows("t", col("id") < cutoff)
            except Exception as exc:  # reported by the main thread
                failures.append(f"writer: {exc!r}")
            finally:
                done.set()

        def read() -> None:
            seen = keep - 1
            try:
                while not done.is_set() and not failures:
                    k, head = seen - 100, inserted[0]
                    ids = engine.scan("t", predicate=col("id") >= k).column("id")
                    if ids != list(range(ids[0], ids[-1] + 1)):
                        failures.append(f"id >= {k}: a gap in {ids}")
                    if not (ids[0] == k or ids[0] in cutoffs) or ids[-1] < head:
                        failures.append(f"id >= {k}: {ids[0]}..{ids[-1]} after {head}")
                    # The first row that landed after the last scan went onto
                    # the page that was open then, and may have filled it.
                    probes = min(seen + 1, ids[-1]), ids[-1] - 3
                    seen = ids[-1]
                    for probe in probes:
                        found = engine.scan("t", predicate=col("id").eq(probe))
                        # Gone only if a trim passed it since (this thread
                        # may not have run for many of the writer's batches).
                        if found.column("id") != [probe] and not (
                                len(found) == 0 and probe < max(cutoffs)):
                            failures.append(f"id = {probe}: {found.rows}")
            except Exception as exc:
                failures.append(f"reader: {exc!r}")

        threads = [threading.Thread(target=write)] + \
            [threading.Thread(target=read) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        last = keep + batches * batch
        assert engine.scan("t").column("id") == list(range(max(cutoffs), last))
