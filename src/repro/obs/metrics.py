"""A process-wide metrics registry: counters, gauges, histograms.

The registry is the write-side of the observability layer: every
instrumented seam (session requests, executor operators,
view refreshes, WAL appends) increments named metric *families* here, and
the exporters (:mod:`repro.obs.export`) turn a point-in-time snapshot into
Prometheus text or plain dictionaries.

Design constraints, in order:

* **Cheap when idle.**  A disabled registry (``enabled=False``) turns every
  ``inc``/``observe``/``set`` into a single attribute check and a return —
  instrumented hot paths never pay for dict lookups or lock acquisition
  unless observability is on.
* **Thread-safe and monotonic.**  Counters only ever go up; concurrent
  writers from session pools and serve workers must never lose increments.
  One lock per child keeps contention local to the series being written.
* **Fixed histogram buckets.**  Bucket boundaries are chosen at
  registration and never change, so concurrent observes are a bisect plus
  two additions and exports are trivially cumulative.

Naming convention (see DESIGN.md "Observability"): every family is
``polystore_<subsystem>_<what>[_total|_seconds|_rows|_bytes]`` with
counters ending in ``_total`` and histograms measuring latency in seconds.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Any, Iterable

#: Default latency buckets (seconds): 100µs .. 10s, roughly log-spaced.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default size buckets (rows or bytes): 1 .. 1M, log-spaced.
SIZE_BUCKETS = (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000)


class _Child:
    """One labeled series of a family; holds its own lock."""

    __slots__ = ("_lock", "label_values")

    def __init__(self, label_values: tuple[str, ...]) -> None:
        self._lock = threading.Lock()
        self.label_values = label_values


class CounterChild(_Child):
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self, label_values: tuple[str, ...]) -> None:
        super().__init__(label_values)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self.value += amount


class GaugeChild(_Child):
    """A value that can go up and down (set at collection time)."""

    __slots__ = ("value",)

    def __init__(self, label_values: tuple[str, ...]) -> None:
        super().__init__(label_values)
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class HistogramChild(_Child):
    """Fixed-boundary cumulative histogram (Prometheus semantics)."""

    __slots__ = ("boundaries", "bucket_counts", "sum", "count")

    def __init__(self, label_values: tuple[str, ...],
                 boundaries: tuple[float, ...]) -> None:
        super().__init__(label_values)
        self.boundaries = boundaries
        self.bucket_counts = [0] * (len(boundaries) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_right(self.boundaries, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch under one lock acquisition (hot-path batching)."""
        indexed = [(bisect_right(self.boundaries, v), v) for v in values]
        with self._lock:
            for index, value in indexed:
                self.bucket_counts[index] += 1
                self.sum += value
                self.count += 1


class Family:
    """One named metric family: children keyed by label values."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 label_names: tuple[str, ...]) -> None:
        self.registry = registry
        self.name = name
        self.help = help
        self.label_names = label_names
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}

    def _make_child(self, values: tuple[str, ...]):
        raise NotImplementedError

    def labels(self, **labels: Any):
        """The child series for these label values (created on first use)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        values = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.setdefault(values,
                                                  self._make_child(values))
        return child

    def remove(self, **labels: Any) -> None:
        """Drop one child series, if present.

        Lets samplers retire label values that will not recur (e.g. a
        departed tenant) so label cardinality stays bounded.
        """
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        values = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            self._children.pop(values, None)

    def children(self) -> list[Any]:
        """All materialized children (stable snapshot)."""
        with self._lock:
            return list(self._children.values())


class Counter(Family):
    kind = "counter"

    def _make_child(self, values: tuple[str, ...]) -> CounterChild:
        return CounterChild(values)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Increment (no-op when the registry is disabled)."""
        if not self.registry.enabled:
            return
        self.labels(**labels).inc(amount)


class Gauge(Family):
    kind = "gauge"

    def _make_child(self, values: tuple[str, ...]) -> GaugeChild:
        return GaugeChild(values)

    def set(self, value: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        self.labels(**labels).inc(amount)


class Histogram(Family):
    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 label_names: tuple[str, ...],
                 buckets: Iterable[float] = LATENCY_BUCKETS) -> None:
        super().__init__(registry, name, help, label_names)
        boundaries = tuple(sorted(float(b) for b in buckets))
        if not boundaries:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        self.boundaries = boundaries

    def _make_child(self, values: tuple[str, ...]) -> HistogramChild:
        return HistogramChild(values, self.boundaries)

    def observe(self, value: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        self.labels(**labels).observe(value)

    def observe_many(self, values: Iterable[float], **labels: Any) -> None:
        """Record a batch of observations against one label set."""
        if not self.registry.enabled:
            return
        self.labels(**labels).observe_many(values)


class MetricsRegistry:
    """All metric families of one deployment.

    Families are registered lazily and idempotently: ``counter(name, ...)``
    returns the existing family when the name is already taken (with the
    same type), so instrumentation sites can declare their metrics where
    they use them without an initialization ordering.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, Family] = {}

    # -- registration --------------------------------------------------------------------

    def _register(self, cls, name: str, help: str,
                  label_names: tuple[str, ...], **kwargs: Any) -> Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind}"
                    )
                return family
            family = cls(self, name, help, label_names, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labels: tuple[str, ...] = ()) -> Counter:
        """Register (or fetch) a counter family."""
        return self._register(Counter, name, help, tuple(labels))

    def gauge(self, name: str, help: str = "",
              labels: tuple[str, ...] = ()) -> Gauge:
        """Register (or fetch) a gauge family."""
        return self._register(Gauge, name, help, tuple(labels))

    def histogram(self, name: str, help: str = "",
                  labels: tuple[str, ...] = (),
                  buckets: Iterable[float] = LATENCY_BUCKETS) -> Histogram:
        """Register (or fetch) a histogram family with fixed buckets."""
        return self._register(Histogram, name, help, tuple(labels),
                              buckets=buckets)

    # -- reading -------------------------------------------------------------------------

    def families(self) -> list[Family]:
        """All registered families, sorted by name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Family | None:
        """One family by name, or ``None``."""
        with self._lock:
            return self._families.get(name)

    def value(self, name: str, **labels: Any) -> float | None:
        """Convenience read of one counter/gauge child (tests, describe)."""
        family = self.get(name)
        if family is None:
            return None
        values = tuple(str(labels[n]) for n in family.label_names)
        child = family._children.get(values)
        if child is None:
            return None
        return getattr(child, "value", None)

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict point-in-time snapshot of every family.

        The shape is stable (used by ``system.describe()`` and tests)::

            {name: {"kind": ..., "help": ..., "labels": [...],
                    "series": [{"labels": {...}, ...values...}]}}
        """
        out: dict[str, Any] = {}
        for family in self.families():
            series = []
            for child in family.children():
                labels = dict(zip(family.label_names, child.label_values))
                if isinstance(child, HistogramChild):
                    with child._lock:
                        series.append({
                            "labels": labels,
                            "sum": child.sum,
                            "count": child.count,
                            "buckets": dict(zip(
                                [*map(str, child.boundaries), "+Inf"],
                                _cumulative(child.bucket_counts))),
                        })
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "series": series,
            }
        return out


def _cumulative(counts: list[int]) -> list[int]:
    total = 0
    out = []
    for count in counts:
        total += count
        out.append(total)
    return out
