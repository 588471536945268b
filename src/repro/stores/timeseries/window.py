"""Window aggregation for the timeseries engine.

Tumbling-window aggregation is the streaming-operator shape the paper's
Polystore++ offloads to bump-in-the-wire accelerators (Saber-style stream
processing); the same function is reused by the accelerator kernel registry
to cost that offload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.exceptions import QueryError
from repro.stores.timeseries.series import Point

_AGGREGATORS: dict[str, Callable[[Sequence[float]], float]] = {
    "mean": lambda xs: sum(xs) / len(xs),
    "sum": sum,
    "min": min,
    "max": max,
    "count": lambda xs: float(len(xs)),
    "last": lambda xs: xs[-1],
    "first": lambda xs: xs[0],
    "stddev": lambda xs: math.sqrt(
        sum((x - sum(xs) / len(xs)) ** 2 for x in xs) / len(xs)
    ),
}


@dataclass(frozen=True)
class WindowResult:
    """One aggregated window: its start time and the aggregate value."""

    window_start: float
    value: float
    count: int


def supported_aggregations() -> tuple[str, ...]:
    """Names of supported window aggregation functions."""
    return tuple(sorted(_AGGREGATORS))


def tumbling_window(points: Iterable[tuple[float, float]], window_s: float,
                    aggregation: str = "mean") -> list[WindowResult]:
    """Aggregate points into fixed, non-overlapping windows of ``window_s`` seconds.

    ``points`` are ``(timestamp, value)`` pairs (:class:`Point` is one).
    Windows are aligned to multiples of ``window_s``; empty windows are not
    emitted.
    """
    if window_s <= 0:
        raise QueryError("window size must be positive")
    if aggregation not in _AGGREGATORS:
        raise QueryError(
            f"unknown aggregation {aggregation!r}; supported: {supported_aggregations()}"
        )
    buckets: dict[float, list[float]] = {}
    for timestamp, value in points:
        start = math.floor(timestamp / window_s) * window_s
        buckets.setdefault(start, []).append(value)
    fn = _AGGREGATORS[aggregation]
    return [
        WindowResult(window_start=start, value=float(fn(values)), count=len(values))
        for start, values in sorted(buckets.items())
    ]


def downsample(points: Iterable[Point], factor: int) -> list[Point]:
    """Keep every ``factor``-th point (simple decimation)."""
    if factor <= 0:
        raise QueryError("downsample factor must be positive")
    return [point for i, point in enumerate(points) if i % factor == 0]


def moving_average(points: Sequence[Point], window: int) -> list[Point]:
    """Simple moving average over the previous ``window`` points."""
    if window <= 0:
        raise QueryError("moving-average window must be positive")
    out: list[Point] = []
    running: list[float] = []
    for point in points:
        running.append(point.value)
        if len(running) > window:
            running.pop(0)
        out.append(Point(point.timestamp, sum(running) / len(running)))
    return out
