"""A page an update or delete copies keeps what reads built on its origin
(``Page.column``, ``Page.bounds``), patched where the statement wrote: every
copy reads as a page built fresh from its rows, the origin's arrays stay as
they were, and the first fused scan after an update builds no column."""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import col
from repro.datamodel import DataType, make_schema
from repro.durability.state import replay_record
from repro.stores import RelationalEngine
from repro.stores.relational.operators import AggregateSpec, aggregate_kernel
from repro.stores.relational.storage import Page

SCHEMA = make_schema(("id", DataType.INT), ("i", DataType.INT), ("f", DataType.FLOAT),
                     ("b", DataType.BOOL), ("s", DataType.STRING))
WIDTH = len(SCHEMA)
PAGE = 4
NAN = float("nan")

#: Mostly cells a column builds from (None now and then, a wrong kind rarely).
_CELLS = {
    "i": [0, 1, 2, -1, 5, 127, 128, 300, -129, 40_000, 2 ** 31, 2 ** 70, None, 1.5],
    "f": [0.0, -0.0, 0.5, 1.5, 2.0, 0.1, 1e300, float("inf"), NAN, None, 3],
    "b": [True, False, True, False, None, 1],
    "s": ["a", "b", "c", "", "new", None, 7],
}
_rows = st.tuples(*(st.sampled_from(_CELLS[name]) for name in SCHEMA.names[1:]))


def _engine(cells: list[tuple]) -> RelationalEngine:
    engine = RelationalEngine("db")
    engine.create_table("t", SCHEMA, page_capacity=PAGE)
    engine.insert("t", [(n, *row) for n, row in enumerate(cells)])  # unvalidated
    engine.create_index("t", "i")
    return engine


def _pages(engine: RelationalEngine, table: str = "t") -> list[Page]:
    return engine._tables[table].heap._pages


def _replay(engine: RelationalEngine, table: str, updated: list) -> None:
    """Replay ``update_rows``' ``(old, new)`` pairs as recovery does: no
    column is named, so each counts as written."""
    replay_record(engine, {"k": "b", "op": ("update", {"table": table}), "entries": [
        entry for old, new in updated for entry in ((old, -1), (new, 1))]})


def _warm(engine: RelationalEngine) -> None:
    """Build every sealed page's columns and bounds, as reads would."""
    for page in _pages(engine)[:-1]:
        for position in range(WIDTH):
            page.bounds(position)
            page.column(position)


def _arrays(engine: RelationalEngine) -> list:
    return [(page, position, column, column.values.copy(),
             None if column.nulls is None else column.nulls.copy())
            for page in _pages(engine) for position, column in page._columns.items()
            if column is not None]


def _same_bounds(got, want) -> bool:
    return got == want and (got is None or list(map(type, got)) == list(map(type, want)))


def _reads_as_fresh(pages: list[Page], width: int = WIDTH) -> None:
    """Each sealed page's bounds are the row walk's, each column the one
    ``Page(capacity, rows)`` builds."""
    for page in pages[:-1]:
        for position in range(width):
            # Bounds first: a column this call built would change what they read.
            assert _same_bounds(page.bounds(position),
                                Page(page.capacity, page.rows).bounds(position)), position
            got, want = page.column(position), Page(page.capacity, page.rows).column(position)
            assert (got is None) == (want is None), position
            if want is not None:
                assert (got.kind, got.keys, got.values.dtype) == \
                    (want.kind, want.keys, want.values.dtype), position
                assert np.array_equal(got.values, want.values), position
                assert (got.nulls is None) == (want.nulls is None), position
                assert want.nulls is None or np.array_equal(got.nulls, want.nulls)
            # A column read off as bounds agrees with the walk, too.
            assert _same_bounds(page.bounds(position),
                                Page(page.capacity, page.rows).bounds(position))


def _write_keeps_columns(cells: list[tuple], ids: list[int], updates: dict | None) -> None:
    engine = _engine(cells)
    _warm(engine)
    old_table, old_rows = engine._tables["t"], list(engine._tables["t"].heap.scan())
    before = _arrays(engine)
    predicate = col("id").isin(*ids)
    if updates is None:
        engine.delete_rows("t", predicate)
    else:
        updated = engine.update_rows("t", predicate, updates)
        replayed = _engine(cells)
        _warm(replayed)
        _replay(replayed, "t", updated)
        _reads_as_fresh(_pages(replayed))
    _reads_as_fresh(_pages(engine))
    # The origin's arrays are as they were: a reader of the old table reads old rows.
    for page, position, column, values, nulls in before:
        assert page._columns[position] is column
        assert np.array_equal(column.values, values) and column.values.dtype == values.dtype
        assert nulls is None or np.array_equal(column.nulls, nulls)
    assert list(old_table.heap.scan()) == old_rows
    # The index on ``i`` finds what a scan of the heap finds, written or not.
    for value in _CELLS["i"]:
        assert engine.index_lookup("t", "i", value).rows == \
            engine.scan("t", predicate=col("i") == value).rows
    # Inserts fill the open last page (a copy, after some deletes) and seal it.
    engine.insert("t", [(-n, 1, 1.0, True, "a") for n in range(1, PAGE + 2)])
    _reads_as_fresh(_pages(engine))


_updates = st.dictionaries(st.sampled_from(SCHEMA.names[1:]),
                           st.sampled_from(sorted({c for v in _CELLS.values() for c in v},
                                                  key=repr)), min_size=1)


@settings(max_examples=300, deadline=None)
@given(st.lists(_rows, min_size=PAGE + 1, max_size=10 * PAGE),
       st.lists(st.integers(0, 10 * PAGE), min_size=1, max_size=12),
       st.none() | _updates)
def test_a_rewritten_page_reads_as_one_built_from_its_rows(cells, ids, updates):
    _write_keeps_columns(cells, ids, updates)


#: ``(column, value)`` written into one page whose columns all build.
NAMED = {
    "an int into a float column": ("f", 3),
    "300 into an int8 column": ("i", 300),
    "None into a column with no nulls": ("i", None),
    "a new string": ("s", "zz"),
    "NaN": ("f", NAN),
    "a float32-exact float": ("f", 0.25),
    "a float only float64 holds": ("f", 0.1),
    "an int past int64": ("i", 2 ** 70),
    "a bool": ("b", False),
}
_PLAIN = [(n % 5, 0.5 * n, n % 2 == 0, "abc"[n % 3]) for n in range(3 * PAGE + 1)]
#: ``_PLAIN`` with an int16 and a float64 cell in the page the writes touch.
_WIDE = [(300, 0.1, *row[2:]) if n == PAGE + 3 else row for n, row in enumerate(_PLAIN)]


@pytest.mark.parametrize("cells", [_PLAIN, _WIDE], ids=["narrow", "wide"])
@pytest.mark.parametrize("case", sorted(NAMED))
def test_a_named_write_reads_as_one_built_fresh(case, cells):
    column, value = NAMED[case]
    _write_keeps_columns(cells, [PAGE + 1, PAGE + 2], {column: value})


@pytest.mark.parametrize("ids", [[PAGE, PAGE + 1, PAGE + 2, PAGE + 3],  # empties a page
                                 [PAGE, PAGE + 1, PAGE + 3],  # leaves one row
                                 [3 * PAGE - 2, 3 * PAGE],  # leaves a copy last
                                 [1, PAGE + 2, 2 * PAGE]])
def test_a_delete_reads_as_one_built_fresh(ids):
    _write_keeps_columns(_PLAIN, ids, None)


def test_a_delete_that_narrows_a_column_reads_as_one_built_fresh():
    cells = [(300 if n == PAGE + 1 else n, 1e300 if n == PAGE + 2 else 1.0, True, None)
             for n in range(3 * PAGE)]
    _write_keeps_columns(cells, [PAGE + 1, PAGE + 2], None)


# -- the first fused scan after an update --------------------------------------------------

FACTS = make_schema(("id", DataType.INT), ("grp", DataType.INT),
                    ("amount", DataType.FLOAT), ("flag", DataType.INT))
PARTIAL = (("grp",), (AggregateSpec("count", None, "n"),
                      AggregateSpec("sum", "amount", "total")))
OVER = col("amount") > 100.0
ROWS, SPAN = 8_000, 100


def _facts() -> list[tuple]:
    rng = random.Random(7)
    return [(i, rng.randrange(97), float(rng.randrange(1000)), 0) for i in range(ROWS)]


def _load(shards: int, rows: list[tuple]):
    engine = RelationalEngine("db", partitions=shards or 1)
    engine.create_table("facts", FACTS)  # partitioned on ``id``
    engine.insert("facts", rows)
    return engine


def _scans(engine) -> list:
    """The fused scan-aggregate's result, as a one-part list."""
    return [engine.scan("facts", None, OVER, partial=PARTIAL)]


@pytest.fixture
def built(monkeypatch) -> list[tuple[Page, int]]:
    """Each ``(page, position)`` whose column is built from rows."""
    calls: list[tuple[Page, int]] = []
    column = Page.column

    def spied(page: Page, position: int):
        if position not in page._columns:
            calls.append((page, position))
        return column(page, position)

    monkeypatch.setattr(Page, "column", spied)
    return calls


@pytest.mark.parametrize("shards", [0, 4])
def test_the_first_fused_scan_after_an_update_builds_no_column(shards, built):
    rows = _facts()
    engine = _load(shards, rows)
    _scans(engine)
    assert built  # the first read of the loaded table builds them
    for low, amount in ((1_000, 55.0), (4_090, 512.0), (7_000, 0.5)):
        engine.update_rows("facts", (col("id") >= low) & (col("id") < low + SPAN),
                           {"amount": amount})
        rows[low:low + SPAN] = [(i, g, amount, f) for i, g, _, f in rows[low:low + SPAN]]
        built.clear()
        partials = _scans(engine)
        assert built == []
        for partial in partials:
            mine = list(engine._tables["facts"].heap.scan())
            fold, _ = aggregate_kernel(FACTS, *PARTIAL, OVER)
            assert repr(partial.rows) == repr(fold([mine], {}))
    assert sorted(engine.scan("facts").rows) == rows


def test_the_first_fused_scan_after_a_trim_builds_no_string_column(built):
    """A delete that leaves part of a page keeps its ``str`` column, its
    codes re-coded into the surviving keys: the next fold builds none."""
    schema = make_schema(("id", DataType.INT), ("grp", DataType.STRING),
                         ("amount", DataType.FLOAT))
    rows = [(i, None if i % 11 == 0 else f"g{i % 5}", float(i % 13)) for i in range(200)]
    engine = RelationalEngine("db")
    engine.create_table("facts", schema, page_capacity=16)
    engine.insert("facts", rows)
    partial = (("grp",), (AggregateSpec("count", None, "n"),
                          AggregateSpec("sum", "amount", "total")))
    engine.scan("facts", partial=partial)
    assert (_pages(engine, "facts")[0], 1) in built
    gone = set(range(0, 200, 3)) | set(range(32, 48))  # trims pages, one to one group
    engine.delete_rows("facts", col("id").isin(*sorted(gone)))
    built.clear()
    folded = engine.scan("facts", partial=partial)
    assert built == []
    kept = [row for row in rows if row[0] not in gone]
    fold, _ = aggregate_kernel(schema, *partial)
    assert repr(folded.rows) == repr(fold([kept], {}))
    _reads_as_fresh(_pages(engine, "facts"), len(schema))


def test_an_update_replayed_from_the_wal_answers_as_the_live_one():
    rows = _facts()
    live, replayed = _load(0, rows), _load(0, rows)
    _scans(live), _scans(replayed)
    for low, amount in ((1_000, 55.0), (4_090, 512.0), (2_000, 0.1)):
        updated = live.update_rows("facts", (col("id") >= low) & (col("id") < low + SPAN),
                                   {"amount": amount, "flag": 1})
        _replay(replayed, "facts", updated)
        assert repr(_scans(replayed)[0].rows) == repr(_scans(live)[0].rows)
        assert replayed.scan("facts").rows == live.scan("facts").rows
        _reads_as_fresh(_pages(replayed, "facts"), len(FACTS))


# -- a writer patching pages beside fused readers ------------------------------------------


def test_readers_folding_pages_a_writer_patches_answer_some_version():
    rows = _facts()
    engine = _load(0, rows)
    writes = [((at * 97) % (ROWS - SPAN), float(at % 23) * 10.0) for at in range(30)]
    amounts = [amount for _, _, amount, _ in rows]
    fold, _ = aggregate_kernel(FACTS, *PARTIAL, OVER)

    def answer() -> str:
        return repr(fold([[(i, g, amounts[i], f) for i, g, _, f in rows]], {}))

    versions = {answer()}
    for low, amount in writes:
        amounts[low:low + SPAN] = [amount] * SPAN
        versions.add(answer())
    done = threading.Event()
    seen: list[list[str]] = [[] for _ in range(3)]

    def reader(answers: list[str]) -> None:
        while not done.is_set() or not answers:
            answers.append(repr(_scans(engine)[0].rows))

    def writer() -> None:
        try:
            for low, amount in writes:
                engine.update_rows("facts", (col("id") >= low) & (col("id") < low + SPAN),
                                   {"amount": amount})
        finally:
            done.set()

    threads = [threading.Thread(target=reader, args=(answers,)) for answers in seen]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often: a copy is patched mid-fold
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(one in versions for answers in seen for one in answers)
    assert repr(_scans(engine)[0].rows) == answer()
    for page in _pages(engine, "facts")[:-1]:
        fresh = Page(page.capacity, page.rows)
        assert np.array_equal(page.column(2).values, fresh.column(2).values)
