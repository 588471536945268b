"""A delete drops a sealed page whole when its bounds prove every row matches.

``page_covered`` is the exact dual of ``page_test``: built from the same
leading conjuncts and bounds, it claims a page only where each tested column
is of one kind with no ``None`` or NaN and the literal compares with that
kind, so no row of it could fail the predicate or raise.  Such a page costs
no matcher call and no copy, and reaches the changelog as one page entry;
the statement still returns, logs and replays the rows the row path would.
Pages the dual must refuse go through the matcher as before.
"""

from __future__ import annotations

import pytest

from repro import PolystorePlusPlus, col
from repro.core.system import SystemConfig
from repro.datamodel import DataType, make_schema
from repro.durability import InjectedFault, faults
from repro.stores import RelationalEngine
from repro.stores.changelog import PageEntry, table_scope
from repro.stores.relational.expressions import Expression, page_covered

SCHEMA = make_schema(("id", DataType.INT), ("c", DataType.STRING),
                     ("x", DataType.FLOAT))
ROWS = [(i, f"c{i % 3}", float(i)) for i in range(22)]  # pages of 4; the last holds 2


@pytest.fixture(autouse=True)
def _clear_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def matched(monkeypatch) -> list[tuple]:
    """Every row a compiled predicate is called on while the test runs."""
    seen: list[tuple] = []
    compile = Expression.compile

    def counting(self, schema):
        test = compile(self, schema)
        return lambda row: (seen.append(row), test(row))[1]

    monkeypatch.setattr(Expression, "compile", counting)
    return seen


class _Reader:
    """A changelog reader: the log keeps the batches past it."""


def _layout(engine, table="t"):
    return [len(page.rows) for page in engine._tables[table].heap._pages]


def _pages(engine, table="t"):
    return list(engine._tables[table].heap._pages)


def test_covered_pages_skip_the_matcher_and_replay_as_the_row_path(tmp_path, matched):
    system = PolystorePlusPlus(SystemConfig(data_dir=str(tmp_path),
                                            durability_snapshot_every=1_000_000))
    db = system.register_engine(RelationalEngine("db"))
    db.create_table("t", SCHEMA, page_capacity=4)
    db.insert("t", ROWS)
    reader = _Reader()
    db.changelog.register(reader)  # keep the delete's batch
    before = _pages(db)
    head = db.changelog.latest_seq

    deleted = db.delete_rows("t", col("id") < 10)
    expected = [row for row in ROWS if row[0] < 10]
    assert deleted == expected
    # Pages 0 and 1 are covered: none of their rows met the matcher.  Page 2
    # matches in part and the open last page is always tested.
    assert matched == ROWS[8:12] + ROWS[20:]
    (batch,) = db.changelog.read_since(head, table_scope("t"))[0]
    assert [(part.page, part.weight) for part in batch.parts[:2]] == \
        [(before[0], -1), (before[1], -1)]
    assert batch.parts[2:] == ((ROWS[8], -1), (ROWS[9], -1))
    assert batch.entries == tuple((row, -1) for row in expected) and batch.rows == 10
    # The sibling shares the untouched pages and copies neither covered one.
    after = _pages(db)
    assert not {id(page) for page in after} & {id(before[0]), id(before[1])}
    assert after[1] is before[3] and after[2] is before[4]
    assert _layout(db) == [2, 4, 4, 2]

    # The row path — a Python matcher, never covered — leaves the same table.
    twin = RelationalEngine("twin")
    twin.create_table("t", SCHEMA, page_capacity=4)
    twin.insert("t", ROWS)
    assert twin._rewrite("t", lambda row: row[0] < 10)[0] == expected
    assert twin.scan("t").rows == db.scan("t").rows and _layout(twin) == _layout(db)

    # Killed before any checkpoint, the WAL replays to the same rows and pages.
    faults.arm("wal.append")
    with pytest.raises(InjectedFault):
        db.insert("t", [(99, "c0", 0.0)])
    system.close()
    reborn = PolystorePlusPlus(SystemConfig(data_dir=str(tmp_path)))
    db2 = reborn.register_engine(RelationalEngine("db"))
    assert reborn.durability.recovery_report()["db"]["replayed_batches"] == 3
    assert db2.scan("t").rows == twin.scan("t").rows and _layout(db2) == _layout(twin)
    reborn.close()


#: Pages the dual must not take whole, each under a predicate true of every
#: row the row path can evaluate: a NULL or a NaN in the tested column, mixed
#: kinds there, an ``IN`` list, a conjunct that is not a plain comparison.
REFUSED = {
    "null": ([(None, "c0", 0.0)] + ROWS[1:4], col("id") < 10),
    "nan": ([(0, "c0", float("nan"))] + ROWS[1:4], col("x") < 100.0),
    "mixed_kinds": ([(0.0, "c0", 0.0)] + ROWS[1:4], col("id") < 10),
    "in_list": (ROWS[:4], col("id").isin(0, 1, 2, 3)),
    "non_leading_conjunct": (ROWS[:4], (col("id") < 10) & (col("x") * 2.0 < 100.0)),
}


@pytest.mark.parametrize("first, predicate", REFUSED.values(), ids=list(REFUSED))
def test_the_dual_refuses_what_it_cannot_prove(first, predicate, matched):
    db = RelationalEngine("db")
    db.create_table("t", SCHEMA, page_capacity=4)
    rows = first + ROWS[4:12]
    db.insert("t", rows)
    page = _pages(db)[0]
    covers = page_covered(predicate, SCHEMA)
    assert covers is None or not covers(page)

    matches = predicate.compile(SCHEMA)
    matched.clear()
    assert db.delete_rows("t", predicate) == [row for row in rows if matches(row)]
    assert matched[:4] == first  # every row of the page went through the matcher


def test_a_kind_the_literal_cannot_compare_with_raises_as_the_row_path():
    db = RelationalEngine("db")
    db.create_table("t", SCHEMA, page_capacity=4)
    db.insert("t", [("0", "c0", 0.0)] + ROWS[1:8])
    with pytest.raises(TypeError):
        db.delete_rows("t", col("id") < 10)
    assert len(db.scan("t").rows) == 8
