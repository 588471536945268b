"""A read leaves nothing behind: an engine keeps no record per call, so a
long-lived server's heap does not grow with the reads it has served."""

from __future__ import annotations

import gc

from repro.datamodel import DataType, Table, make_schema
from repro.stores import KeyValueEngine, RelationalEngine, TimeseriesEngine

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
