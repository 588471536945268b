"""Readers fold sealed pages' columns while a writer rewrites pages: each fused
aggregate answers as the table stood at some version, and readers racing to
fill one page's column cache agree."""

from __future__ import annotations

import sys
import threading

from repro import col
from repro.datamodel import DataType, Table, make_schema
from repro.stores import RelationalEngine
from repro.stores.relational.operators import AggregateSpec

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
