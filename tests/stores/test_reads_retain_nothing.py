"""A read leaves nothing behind: an engine keeps no record per call, so a
long-lived server's heap does not grow with the reads it has served."""

from __future__ import annotations

import gc

from repro import col
from repro.datamodel import DataType, Table, make_schema
from repro.stores import KeyValueEngine, RelationalEngine, TimeseriesEngine
from repro.stores.relational.operators import AggregateSpec

CALLS = 5_000


def test_5000_reads_on_three_engines_retain_no_objects():
    db = RelationalEngine("db")
    db.load_table("t", Table(make_schema(("a", DataType.INT)), [(1,), (2,)]))
    kv = KeyValueEngine("kv")
    kv.put("k", {"v": 1})
    ts = TimeseriesEngine("ts")
    ts.append_many("hr/1", [(0.0, 60.0), (1.0, 61.0)])
    reads = (lambda: db.scan("t"), lambda: kv.get("k"),
             lambda: ts.summarize_many(["hr/1"]))
    for read in reads:  # warm up: caches and generated kernels
        read()
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(CALLS):
        for read in reads:
            read()
    gc.collect()
    assert len(gc.get_objects()) - before < 100


def test_5000_fused_aggregate_reads_retain_no_objects():
    # Four pages: three sealed ones fold from their column arrays, built by
    # the warm-up read and kept on the pages; the last one takes the row kernel.
    db = RelationalEngine("db")
    db.load_table("t", Table(make_schema(("g", DataType.INT), ("a", DataType.FLOAT)),
                             [(i % 5, float(i)) for i in range(1_000)]))
    partial = (("g",), (AggregateSpec("count", None, "n"), AggregateSpec("sum", "a", "s")))
    over = col("a") > 10.0
    db.scan("t", None, over, partial=partial)
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(CALLS):
        db.scan("t", None, over, partial=partial)
    gc.collect()
    assert len(gc.get_objects()) - before < 100
