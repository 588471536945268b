"""Tests for the timeseries/stream engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QueryError, StorageError
from repro.stores.timeseries import (
    Point,
    TimeseriesEngine,
    downsample,
    moving_average,
    supported_aggregations,
    tumbling_window,
)


@pytest.fixture
def engine() -> TimeseriesEngine:
    engine = TimeseriesEngine("monitors")
    engine.append_many("hr/1", [(float(i), 60.0 + i % 10) for i in range(100)])
    engine.append_many("hr/2", [(float(i), 90.0) for i in range(50)])
    engine.create_series("bp/1", tags={"unit": "mmHg"})
    return engine


class TestSeries:
    def test_out_of_order_append_keeps_order(self, engine: TimeseriesEngine):
        series = engine.create_series("late")
        series.extend([(10.0, 1.0), (5.0, 2.0), (7.0, 3.0)])
        assert series.timestamps() == [5.0, 7.0, 10.0]

    def test_between_bounds(self, engine: TimeseriesEngine):
        points = engine.query_range("hr/1", 10, 20)
        assert len(points) == 10
        assert points[0].timestamp == 10.0

    def test_latest(self, engine: TimeseriesEngine):
        assert engine.latest("hr/1").timestamp == 99.0

    def test_latest_empty_raises(self, engine: TimeseriesEngine):
        with pytest.raises(StorageError):
            engine.latest("bp/1")

    def test_missing_series_raises(self, engine: TimeseriesEngine):
        with pytest.raises(StorageError):
            engine.query_range("nope")


class TestWindows:
    def test_tumbling_window_mean(self, engine: TimeseriesEngine):
        windows = engine.window_aggregate("hr/2", 10.0, "mean")
        assert len(windows) == 5
        assert all(w.value == 90.0 for w in windows)
        assert all(w.count == 10 for w in windows)

    def test_window_aggregations_supported(self):
        assert {"mean", "sum", "min", "max", "count", "stddev"} <= set(supported_aggregations())

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(QueryError):
            tumbling_window([Point(0.0, 1.0)], 10.0, "p99")

    def test_zero_window_rejected(self):
        with pytest.raises(QueryError):
            tumbling_window([Point(0.0, 1.0)], 0.0)

    def test_downsample(self):
        points = [Point(float(i), float(i)) for i in range(10)]
        assert len(downsample(points, 3)) == 4

    def test_moving_average_smooths(self):
        points = [Point(float(i), v) for i, v in enumerate([0, 10, 0, 10])]
        smoothed = moving_average(points, 2)
        assert smoothed[-1].value == 5.0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1e4, allow_nan=False),
                              st.floats(-1e3, 1e3, allow_nan=False)),
                    min_size=1, max_size=100))
    def test_property_window_counts_cover_all_points(self, points):
        """Every input point lands in exactly one tumbling window."""
        results = tumbling_window([Point(t, v) for t, v in points], 7.0, "count")
        assert sum(int(r.value) for r in results) == len(points)
        starts = [r.window_start for r in results]
        assert starts == sorted(starts)


class TestEngineSurface:
    def test_streaming_batches(self, engine: TimeseriesEngine):
        batches = list(engine.stream("hr/1", batch_size=30))
        assert [len(b) for b in batches] == [30, 30, 30, 10]

    def test_series_bounds_and_values(self, engine: TimeseriesEngine):
        series = engine.series("hr/1")
        assert (series.start, series.end) == (0.0, 99.0)
        assert series.values()[:3] == [60.0, 61.0, 62.0]
        empty = engine.series("bp/1")
        assert (empty.start, empty.end, empty.values()) == (None, None, [])

    def test_downsample_and_moving_average_read_the_stored_series(
            self, engine: TimeseriesEngine):
        points = engine.query_range("hr/1")
        assert engine.downsample("hr/1", 10) == downsample(points, 10)
        assert [p.timestamp for p in engine.downsample("hr/1", 10)] == \
            [float(i) for i in range(0, 100, 10)]
        smoothed = engine.moving_average("hr/1", 10)
        assert smoothed == moving_average(points, 10)
        assert all(p.value == 64.5 for p in smoothed[9:])

    def test_summarize(self, engine: TimeseriesEngine):
        summary = engine.summarize("hr/2")
        assert summary["count"] == 50.0
        assert summary["mean"] == 90.0

    def test_summarize_empty_series(self, engine: TimeseriesEngine):
        assert engine.summarize("bp/1")["count"] == 0.0

    def test_list_series_with_tags(self, engine: TimeseriesEngine):
        assert engine.list_series({"unit": "mmHg"}) == ["bp/1"]

    def test_statistics(self, engine: TimeseriesEngine):
        stats = engine.statistics()
        assert stats["series"] == 3
        assert stats["points"] == 150
