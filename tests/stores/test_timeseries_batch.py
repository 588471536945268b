"""The column-at-a-time read path of the timeseries engine.

``Series.between`` hands out slices of the series' two parallel arrays,
``summarize_many`` summarises many series in one call,
and ``Point`` objects exist only at the public edges that promise them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StorageError
from repro.ir.nodes import Operator
from repro.middleware.adapters import TimeseriesAdapter
from repro.stores.timeseries import Point, TimeseriesEngine


def parent_summary(engine: TimeseriesEngine, key: str, start, end) -> dict[str, float]:
    """The per-key summary as 23275cc computed it, over ``Point`` objects."""
    values = [p.value for p in engine.query_range(key, start, end)]
    if not values:
        return {"count": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0, "last": 0.0}
    return {"count": float(len(values)), "mean": sum(values) / len(values),
            "min": min(values), "max": max(values), "last": values[-1]}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                                   st.floats(-1e6, 1e6, allow_nan=False)),
                         max_size=30), min_size=1, max_size=5),
       st.one_of(st.none(), st.floats(0, 100)), st.one_of(st.none(), st.floats(0, 100)))
def test_batch_summary_is_bit_identical_to_the_per_point_arithmetic(series, start, end):
    engine = TimeseriesEngine("monitors")
    keys = [f"hr/{i}" for i in range(len(series))]
    for key, points in zip(keys, series):
        engine.create_series(key)
        engine.append_many(key, points)
    expected = [parent_summary(engine, key, start, end) for key in keys]
    batch = engine.summarize_many(keys, start, end)
    assert [tuple(e.values()) for e in expected] == batch
    assert [engine.summarize(key, start, end) for key in keys] == expected


class TestOneCallPerBatch:
    @pytest.fixture
    def engine(self) -> TimeseriesEngine:
        engine = TimeseriesEngine("monitors")
        for pid in range(500):
            engine.append_many(f"hr/{pid}", [(float(t), 60.0 + t) for t in range(4)])
        return engine

    def test_batch_call_reads_every_sample_in_range(self, engine):
        summaries = engine.summarize_many([f"hr/{pid}" for pid in range(500)], 1.0, None)
        assert sum(summary[0] for summary in summaries) == 1500

    def test_empty_batch_is_empty(self, engine):
        assert engine.summarize_many([]) == []

    def test_summary_leaf_over_500_series_makes_o1_engine_calls(self, engine, monkeypatch):
        """One engine call per series (500 here, 2 000 a run of the Figure-2
        program) is what the batch replaced."""
        calls: list[str] = []
        for name in ("list_series", "has_series", "range_columns", "query_range",
                     "summarize", "summarize_many"):
            method = getattr(engine, name)
            monkeypatch.setattr(engine, name, lambda *args, _name=name, _method=method, **kw:
                                (calls.append(_name), _method(*args, **kw))[1])
        table = TimeseriesAdapter(engine).execute(
            Operator("ts_summarize", {"series_prefix": "hr/"}, engine="monitors"), [])
        assert len(table) == 500
        assert len(calls) <= 2

    def test_missing_series_raises(self, engine):
        with pytest.raises(StorageError):
            engine.summarize_many(["hr/1", "nope"])


def test_between_hands_out_column_slices_and_points_only_at_the_edges():
    engine = TimeseriesEngine("monitors")
    engine.append_many("hr/1", [(float(t), 2.0 * t) for t in range(10)])
    series = engine.series("hr/1")
    assert series.between(2, 5) == ([2.0, 3.0, 4.0], [4.0, 6.0, 8.0])
    assert engine.range_columns("hr/1", 8) == ([8.0, 9.0], [16.0, 18.0])
    assert engine.query_range("hr/1", 8) == [Point(8.0, 16.0), Point(9.0, 18.0)]
    assert all(isinstance(p, Point) for batch in engine.stream("hr/1", batch_size=4)
               for p in batch)
    assert next(iter(series)) == Point(0.0, 0.0)
    table = TimeseriesAdapter(engine).execute(
        Operator("ts_range", {"series": "hr/1", "start": 8}, engine="monitors"), [])
    assert table.rows == [(8.0, 16.0), (9.0, 18.0)]
    assert all(type(row) is tuple for row in table.rows)
