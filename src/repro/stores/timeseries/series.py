"""Storage structures for the timeseries engine."""

from __future__ import annotations

import bisect
from typing import Iterator, NamedTuple

from repro.exceptions import StorageError


class Point(NamedTuple):
    """One observation: a timestamp and a value."""

    timestamp: float
    value: float


class Series:
    """An append-mostly, time-ordered sequence of points.

    Out-of-order appends are accepted and inserted at the right position
    (bedside monitors occasionally deliver late samples); lookups and range
    scans rely on the maintained ordering.
    """

    def __init__(self, key: str, tags: dict[str, str] | None = None) -> None:
        self.key = key
        self.tags = dict(tags or {})
        self._timestamps: list[float] = []
        self._values: list[float] = []

    def append(self, timestamp: float, value: float) -> None:
        """Add one point, keeping the series sorted by time."""
        timestamp = float(timestamp)
        value = float(value)
        if not self._timestamps or timestamp >= self._timestamps[-1]:
            self._timestamps.append(timestamp)
            self._values.append(value)
            return
        pos = bisect.bisect_right(self._timestamps, timestamp)
        self._timestamps.insert(pos, timestamp)
        self._values.insert(pos, value)

    def extend(self, points: list[tuple[float, float]]) -> None:
        """Add many ``(timestamp, value)`` points."""
        for timestamp, value in points:
            self.append(timestamp, value)

    def between(self, start: float | None = None, end: float | None = None
                ) -> tuple[list[float], list[float]]:
        """The ``(timestamps, values)`` slices with ``start <= timestamp < end``.

        Open ends are allowed.  Two parallel lists, not points: the engine's
        scans and summaries read a column at a time.
        """
        lo = 0 if start is None else bisect.bisect_left(self._timestamps, start)
        hi = len(self._timestamps) if end is None else bisect.bisect_left(self._timestamps, end)
        return self._timestamps[lo:hi], self._values[lo:hi]

    def latest(self) -> Point:
        """The most recent point."""
        if not self._timestamps:
            raise StorageError(f"series {self.key!r} is empty")
        return Point(self._timestamps[-1], self._values[-1])

    def values(self) -> list[float]:
        """All values in time order."""
        return list(self._values)

    def timestamps(self) -> list[float]:
        """All timestamps in order."""
        return list(self._timestamps)

    @property
    def start(self) -> float | None:
        """Earliest timestamp, or ``None`` when empty."""
        return self._timestamps[0] if self._timestamps else None

    @property
    def end(self) -> float | None:
        """Latest timestamp, or ``None`` when empty."""
        return self._timestamps[-1] if self._timestamps else None

    def __len__(self) -> int:
        return len(self._timestamps)

    def __iter__(self) -> Iterator[Point]:
        return map(Point, self._timestamps, self._values)
