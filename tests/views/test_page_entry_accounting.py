"""A page entry counts as the rows it stands for, wherever rows are counted.

A delete that drops sealed pages whole logs one page entry per page.  The
log's retention (``retained_rows`` and the ``max_rows`` cap), a refresh's
pulled rows and ``views.refresh_us_per_delta_row``'s denominator must count
the page's rows, as they counted the ``(row, -1)`` pairs the delete used to
log; a delete larger than the cap still ages out, and the view resyncs.
"""

from __future__ import annotations

from repro import PolystorePlusPlus, col
from repro.compiler.pipeline import CompilerOptions
from repro.datamodel import DataType, make_schema
from repro.eide.dataflow import DataflowProgram, Dataset
from repro.stores import RelationalEngine
from repro.stores.changelog import ChangeLog, PageEntry, table_scope

ORDERS = make_schema(("order_id", DataType.INT), ("region", DataType.STRING),
                     ("amount", DataType.FLOAT))
ROWS = [(i, "nsew"[i % 4], float(i % 7)) for i in range(64)]


def _recompute(system, expr) -> list[tuple]:
    program = DataflowProgram("recompute")
    program.output("res", Dataset(expr.node))
    return sorted(system.execute(program, options=CompilerOptions(use_views=False))
                  .output("res").rows)


class Reader:
    """A stand-in for a view's cursor: any weakly referenceable object."""


def _engine() -> RelationalEngine:
    engine = RelationalEngine("db")
    engine.create_table("orders", ORDERS, page_capacity=8)
    engine.insert("orders", ROWS)
    return engine


def test_retained_rows_count_a_page_entry_as_its_rows():
    engine = _engine()
    reader = Reader()
    log = engine.changelog
    head = log.register(reader)
    deleted = engine.delete_rows("orders", col("order_id") < 29)  # 3 pages and 5 rows
    (batch,) = log.read_since(head, table_scope("orders"))[0]
    assert sum(type(part) is PageEntry for part in batch.parts) == 3
    assert log.retention_stats()["retained_rows"] == len(deleted) == batch.rows == 29

    # The same rows logged as pairs retain the same count.
    pairs = ChangeLog()
    pairs.register(reader)
    pairs.append(table_scope("orders"), batch.entries)
    assert pairs.retention_stats()["retained_rows"] == 29
    log.register(reader, log.latest_seq)
    assert log.retention_stats()["retained_rows"] == 0


def test_a_delete_past_max_rows_ages_out_and_the_view_resyncs():
    system = PolystorePlusPlus()
    engine = system.register_engine(RelationalEngine("db"))
    engine.changelog = ChangeLog(max_rows=20)
    engine.create_table("orders", ORDERS, page_capacity=8)
    engine.insert("orders", ROWS[:16])
    engine.insert("orders", ROWS[16:])
    spend = (system.dataset("db").table("orders").filter(col("amount") > 1.0)
             .aggregate(["region"], total=("sum", "amount"), n=("count", None)))
    view = system.create_view("spend", spend, policy="deferred")
    assert engine.delete_rows("orders", col("order_id") < 40)  # 5 whole pages: 40 rows
    assert engine.changelog.retention_stats()["retained_rows"] == 0
    outcome = view.refresh()
    assert outcome.kind == "full" and "resync_reason" in outcome.details
    assert sorted(view.read()[0].rows) == _recompute(system, spend)


def test_a_refresh_pulls_the_rows_of_the_pages_it_folds():
    system = PolystorePlusPlus()
    engine = system.register_engine(RelationalEngine("db"))
    engine.create_table("orders", ORDERS, page_capacity=8)
    engine.insert("orders", ROWS)
    spend = (system.dataset("db").table("orders").filter(col("amount") > 1.0)
             .aggregate(["region"], total=("sum", "amount"), n=("count", None)))
    view = system.create_view("spend", spend, policy="deferred")
    engine.insert("orders", [(100, "n", 5.0)])
    engine.delete_rows("orders", col("order_id") < 27)  # 3 pages and 3 rows
    outcome = view.refresh()
    assert outcome.kind == "incremental" and outcome.input_rows == 1 + 27
    assert view.describe()["full_recomputes"] == 0
    assert sorted(view.read()[0].rows) == _recompute(system, spend)
