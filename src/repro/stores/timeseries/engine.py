"""The timeseries/stream data-processing engine.

Stores named series of ``(timestamp, value)`` points (ICU vital signs and
clickstreams in the paper's examples) and provides the streaming operators
Polystore++ cares about: range scans, tumbling-window aggregation,
downsampling and per-patient feature extraction.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.exceptions import StorageError
from repro.stores.base import DataModel, Engine
from repro.stores.changelog import series_scope
from repro.stores.timeseries.series import Point, Series
from repro.stores.timeseries.window import (
    WindowResult,
    downsample,
    moving_average,
    tumbling_window,
)

#: The statistics of one series summary, in the order ``summarize_many`` packs them.
SUMMARY_FIELDS = ("count", "mean", "min", "max", "last")


class TimeseriesEngine(Engine):
    """A timeseries store keyed by series name with tag support."""

    data_model = DataModel.TIMESERIES

    def __init__(self, name: str = "timeseries") -> None:
        super().__init__(name)
        self._series: dict[str, Series] = {}

    # -- writes ---------------------------------------------------------------------

    def create_series(self, key: str, tags: dict[str, str] | None = None) -> Series:
        """Create (or return an existing) series."""
        if key not in self._series:
            self._series[key] = Series(key, tags)
            # Creation carries no points: an empty (non-gap) batch still
            # bumps the series scope and the engine-wide counter.
            self.mark_data_changed(
                series_scope(key), entries=(),
                op=("create_series", {"key": key, "tags": dict(tags or {})}))
        return self._series[key]

    def append(self, key: str, timestamp: float, value: float) -> None:
        """Append one point to a series, creating it if needed."""
        self.create_series(key).append(timestamp, value)
        self.mark_data_changed(series_scope(key),
                               entries=[((timestamp, value), 1)],
                               op=("append", {"key": key}))

    def append_many(self, key: str, points: Iterable[tuple[float, float]]) -> int:
        """Append many points to one series; returns the count appended."""
        series = self.create_series(key)
        appended: list[tuple[tuple[float, float], int]] = []
        for timestamp, value in points:
            series.append(timestamp, value)
            appended.append(((timestamp, value), 1))
        if appended:
            self.mark_data_changed(series_scope(key), entries=appended,
                                   op=("append_many", {"key": key}))
        return len(appended)

    # -- reads --------------------------------------------------------------------------

    def series(self, key: str) -> Series:
        """The series named ``key``."""
        try:
            return self._series[key]
        except KeyError as exc:
            raise StorageError(f"series {key!r} does not exist") from exc

    def has_series(self, key: str) -> bool:
        """Whether a series exists."""
        return key in self._series

    def list_series(self, tag_filter: dict[str, str] | None = None) -> list[str]:
        """Names of all series, optionally filtered by exact tag matches."""
        if not tag_filter:
            return sorted(self._series)
        return sorted(
            key for key, series in self._series.items()
            if all(series.tags.get(k) == v for k, v in tag_filter.items())
        )

    def range_columns(self, key: str, start: float | None = None,
                      end: float | None = None) -> tuple[list[float], list[float]]:
        """The ``(timestamps, values)`` of a series within ``[start, end)``."""
        return self.series(key).between(start, end)

    def query_range(self, key: str, start: float | None = None,
                    end: float | None = None) -> list[Point]:
        """Points of a series within ``[start, end)``."""
        return list(map(Point, *self.range_columns(key, start, end)))

    def stream(self, key: str, start: float | None = None,
               end: float | None = None, *, batch_size: int = 256
               ) -> Iterator[list[Point]]:
        """Yield a series range in batches, as a streaming scan would."""
        timestamps, values = self.series(key).between(start, end)
        for lo in range(0, len(values), batch_size):
            yield list(map(Point, timestamps[lo:lo + batch_size],
                           values[lo:lo + batch_size]))

    def latest(self, key: str) -> Point:
        """Most recent point of a series."""
        return self.series(key).latest()

    # -- aggregation -----------------------------------------------------------------------

    def window_aggregate(self, key: str, window_s: float, aggregation: str = "mean",
                         start: float | None = None, end: float | None = None
                         ) -> list[WindowResult]:
        """Tumbling-window aggregation of one series."""
        points = zip(*self.series(key).between(start, end))
        return tumbling_window(points, window_s, aggregation)

    def downsample(self, key: str, factor: int) -> list[Point]:
        """Decimate a series by ``factor``."""
        return downsample(self.series(key), factor)

    def moving_average(self, key: str, window: int) -> list[Point]:
        """Moving average over a series."""
        return moving_average(list(self.series(key)), window)

    def summarize_many(self, keys: Sequence[str], start: float | None = None,
                       end: float | None = None) -> list[tuple[float, ...]]:
        """Summary statistics of many series' ranges, in ``keys`` order.

        One :data:`SUMMARY_FIELDS` tuple per key, all zero for an empty range.
        This is the per-patient vital-sign feature extraction used when the
        MIMIC workload builds its feature vector: one call for the batch.
        """
        summaries: list[tuple[float, ...]] = []
        for key in keys:
            _, values = self.series(key).between(start, end)
            summaries.append((float(len(values)), sum(values) / len(values),
                              min(values), max(values), values[-1])
                             if values else (0.0,) * len(SUMMARY_FIELDS))
        return summaries

    def summarize(self, key: str, start: float | None = None,
                  end: float | None = None) -> dict[str, float]:
        """Summary statistics (count/mean/min/max/last) for one series range."""
        return dict(zip(SUMMARY_FIELDS, self.summarize_many([key], start, end)[0]))

    def statistics(self) -> dict[str, Any]:
        """Engine statistics for the catalog."""
        return {
            "series": len(self._series),
            "points": sum(len(s) for s in self._series.values()),
        }
