"""Readers fold sealed pages' columns while a writer rewrites pages or inserts
rows that seal them: each fused aggregate answers as the table stood at some
version, and readers racing to fill one page's column cache agree."""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro import col
from repro.datamodel import DataType, Table, make_schema
from repro.stores import RelationalEngine
from repro.stores.relational.operators import AggregateSpec
from repro.stores.relational.storage import Page

ROWS, GROUPS, SPAN, WRITES, READERS = 4_096, 7, 100, 40, 4
FACTS = make_schema(("id", DataType.INT), ("grp", DataType.INT),
                    ("amount", DataType.FLOAT))
PARTIAL = (("grp",), (AggregateSpec("count", None, "n"),
                      AggregateSpec("sum", "amount", "total")))
OVER = col("amount") > 10.0


def _write(at: int) -> tuple[int, float]:
    """Write ``at`` sets ``amount`` on ids ``[low, low + SPAN)``."""
    return (at * 97) % (ROWS - SPAN), float(at % 23)


def _answer(amounts: list[float]) -> str:
    """The fused aggregate's rows over ``amounts``: the row kernel's left fold."""
    groups: dict[int, list] = {}
    for i, amount in enumerate(amounts):
        if amount > 10.0:
            a = groups.setdefault(i % GROUPS, [0, None])
            a[0] += 1
            a[1] = (0 if a[1] is None else a[1]) + amount
    return repr([(key, *a) for key, a in groups.items()])


def _engine() -> tuple[RelationalEngine, list[float]]:
    amounts = [float((i * 37) % 50) + 0.25 * (i % 3) for i in range(ROWS)]
    engine = RelationalEngine("db")
    engine.load_table("facts", Table(FACTS, [(i, i % GROUPS, amount)
                                             for i, amount in enumerate(amounts)]))
    return engine, amounts


def _read(engine: RelationalEngine) -> str:
    return repr(engine.scan("facts", None, OVER, partial=PARTIAL).rows)


def _run(threads: list[threading.Thread]) -> None:
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often: readers interleave mid-fold
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_readers_racing_on_cold_pages_agree():
    engine, amounts = _engine()
    start = threading.Barrier(READERS)
    answers: list[str] = []

    def reader() -> None:
        start.wait()
        answers.append(_read(engine))

    _run([threading.Thread(target=reader) for _ in range(READERS)])
    assert answers == [_answer(amounts)] * READERS


def test_every_answer_beside_updates_is_the_table_at_some_version():
    engine, amounts = _engine()
    versions = {_answer(amounts)}
    for at in range(WRITES):
        low, amount = _write(at)
        amounts[low:low + SPAN] = [amount] * SPAN
        versions.add(_answer(amounts))
    done = threading.Event()
    answers: list[list[str]] = [[] for _ in range(READERS)]

    def reader(seen: list[str]) -> None:
        while not done.is_set() or not seen:
            seen.append(_read(engine))

    def writer() -> None:
        try:
            for at in range(WRITES):
                low, amount = _write(at)
                engine.update_rows("facts", (col("id") >= low) & (col("id") < low + SPAN),
                                   {"amount": amount})
        finally:
            done.set()

    _run([threading.Thread(target=reader, args=(seen,)) for seen in answers]
         + [threading.Thread(target=writer)])
    assert all(answer in versions for seen in answers for answer in seen)
    assert _read(engine) == _answer(amounts)


#: ``ingest_dash``'s shape: orders keyed by a region string, inserted in batches.
REGIONS = ("north", "south", "east", "west", "centre")
ORDERS = make_schema(("order_id", DataType.INT), ("region", DataType.STRING),
                     ("amount", DataType.FLOAT))
BATCH, INSERTS, ORDER_PAGE = 50, 200, 64


def _order(i: int) -> tuple[int, str, float]:
    # Tenths are not exact in binary: a sum taken in another order differs.
    return i, REGIONS[(i * 7) % 5], (i * 13) % 40 / 10


def _prefixes_beside_inserts(page: int, batch: int) -> RelationalEngine:
    """Readers fold ``orders`` while a writer inserts ``batch`` rows at a time
    into pages of ``page`` rows; every answer is the left fold of the first
    ``n`` orders, for some ``n``.  Returns the engine once the writer stopped."""
    initial = 2 * page * 16
    orders = [_order(i) for i in range(initial + INSERTS * batch)]
    engine = RelationalEngine("db")
    engine.load_table("orders", Table(ORDERS, orders[:initial]), page_capacity=page)
    partial = (("region",), PARTIAL[1])
    groups: dict[str, list] = {}
    prefixes = set()
    for at, (_, region, amount) in enumerate(orders, 1):
        if amount > 1.0:
            a = groups.setdefault(region, [0, None])
            a[0] += 1
            a[1] = (0 if a[1] is None else a[1]) + amount
        if at >= initial:
            prefixes.add(repr([(key, *a) for key, a in groups.items()]))
    done = threading.Event()
    answers: list[list[str]] = [[] for _ in range(READERS)]

    def read() -> str:
        return repr(engine.scan("orders", None, col("amount") > 1.0, partial=partial).rows)

    def reader(seen: list[str]) -> None:
        while not done.is_set() or not seen:
            seen.append(read())

    def writer() -> None:
        try:
            for at in range(initial, len(orders), batch):
                engine.insert("orders", orders[at:at + batch])
        finally:
            done.set()

    _run([threading.Thread(target=reader, args=(seen,)) for seen in answers]
         + [threading.Thread(target=writer)])
    assert all(answer in prefixes for seen in answers for answer in seen)
    assert read() == repr([(key, *a) for key, a in groups.items()])
    return engine


def test_string_keyed_answers_beside_inserts_that_seal_pages_are_prefixes():
    # A reader takes the page list once: every page but its last is full and
    # sealed, and the rows it folds are some prefix of the inserts.
    _prefixes_beside_inserts(ORDER_PAGE, BATCH)


def test_answers_beside_inserts_spanning_pages_are_prefixes_and_seal_fresh_columns():
    # Each batch tops up the last page and lands three more: a reader that
    # took the page list between two of them still sees a prefix, and never
    # caches the columns or bounds of a page that was still filling.
    engine = _prefixes_beside_inserts(16, 3 * 16 + 2)
    pages = engine._tables["orders"].heap._pages
    for page in pages[:-1]:
        fresh = Page(page.capacity, page.rows)
        assert len(page.rows) == page.capacity
        for position in range(len(ORDERS)):
            got, want = page.column(position), fresh.column(position)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.kind, got.keys, got.values.dtype) == (
                    want.kind, want.keys, want.values.dtype)
                assert np.array_equal(got.values, want.values)
                assert np.array_equal(got.nulls, want.nulls)
            assert page.bounds(position) == fresh.bounds(position)
