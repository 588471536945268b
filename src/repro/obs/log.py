"""Trace-correlated structured event log.

Components log through ``obs.logger("durability")``-style named loggers;
every record is a flat JSON-able dict carrying ``ts`` (unix seconds),
``level``, ``component``, ``event``, free-form fields, and — when the
logging thread has a sampled span open — the active ``trace_id`` and
``span_id``, so an incident's event record lines up with its trace and its
profile.  Records land in a bounded ring buffer (crash-dump style: the
recent past is always available from a live system) and, optionally, are
mirrored to a stream sink as JSON lines.

Repeated identical events are rate-limited: after ``suppress_after``
occurrences of one ``(component, level, event)`` key inside a window,
further occurrences are dropped and the *next* emitted record carries a
``suppressed`` count — a checkpoint loop or admission-reject storm cannot
wash the buffer.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import IO, TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .metrics import Family
    from .trace import Tracer

#: Record severity order; ``warn``/``warning`` both accepted on input.
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _level_value(level: str) -> int:
    name = "warning" if level == "warn" else level
    try:
        return LEVELS[name]
    except KeyError:
        raise ValueError(f"unknown log level {level!r}; "
                         f"expected one of {sorted(LEVELS)}") from None


class _DupState:
    """Suppression window for one (component, level, event) key."""

    __slots__ = ("window_start", "emitted", "suppressed")

    def __init__(self, now: float) -> None:
        self.window_start = now
        self.emitted = 0
        self.suppressed = 0


class EventLog:
    """Bounded, trace-correlated structured log shared by one deployment."""

    def __init__(self, tracer: "Tracer | None" = None, *,
                 enabled: bool = True, capacity: int = 2048,
                 level: str = "info", suppress_after: int = 5,
                 suppress_window_s: float = 1.0,
                 clock: Callable[[], float] = time.time) -> None:
        self.enabled = enabled
        self.tracer = tracer
        self.min_level = _level_value(level)
        self.suppress_after = suppress_after
        self.suppress_window_s = suppress_window_s
        self._clock = clock
        self._lock = threading.Lock()
        self._records: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._dups: dict[tuple[str, str, str], _DupState] = {}
        self._sink: IO[str] | None = None
        self.total_records = 0
        self.total_suppressed = 0
        #: Hub counter families, injected by Observability after registration.
        self.records_counter: "Family | None" = None
        self.suppressed_counter: "Family | None" = None

    # -- configuration -------------------------------------------------------------------

    def attach_stream(self, stream: IO[str] | None) -> None:
        """Mirror every retained record to ``stream`` as JSON lines."""
        with self._lock:
            self._sink = stream

    def set_level(self, level: str) -> None:
        self.min_level = _level_value(level)

    def logger(self, component: str) -> "ComponentLogger":
        """A named logger stamping ``component`` on every record."""
        return ComponentLogger(self, component)

    # -- recording -----------------------------------------------------------------------

    def emit(self, level: str, component: str, event: str,
             **fields: Any) -> dict[str, Any] | None:
        """Record one event; returns the record, or None when filtered out."""
        if not self.enabled:
            return None
        severity = _level_value(level)
        if severity < self.min_level:
            return None
        level_name = "warning" if level == "warn" else level
        now = self._clock()
        record: dict[str, Any] = {
            "ts": now,
            "level": level_name,
            "component": component,
            "event": event,
        }
        span = self.tracer.current() if self.tracer is not None else None
        if span is not None:
            record["trace_id"] = span.trace_id
            record["span_id"] = span.span_id
        record.update(fields)

        sink = None
        with self._lock:
            state = self._suppression_state(component, level_name, event, now)
            if state.emitted >= self.suppress_after:
                state.suppressed += 1
                self.total_suppressed += 1
                suppressed = True
            else:
                state.emitted += 1
                if state.suppressed:
                    record["suppressed"] = state.suppressed
                    state.suppressed = 0
                self._records.append(record)
                self.total_records += 1
                sink = self._sink
                suppressed = False
        counter = self.suppressed_counter if suppressed else self.records_counter
        if suppressed:
            if counter is not None:
                counter.inc(component=component)
            return None
        if counter is not None:
            counter.inc(component=component, level=level_name)
        if sink is not None:
            sink.write(json.dumps(record, default=str) + "\n")
        return record

    def _suppression_state(self, component: str, level: str, event: str,
                           now: float) -> _DupState:
        key = (component, level, event)
        state = self._dups.get(key)
        if state is None or now - state.window_start >= self.suppress_window_s:
            carried = state.suppressed if state is not None else 0
            state = _DupState(now)
            state.suppressed = carried
            self._dups[key] = state
            if len(self._dups) > 4096:  # unbounded-key hygiene (tenant ids...)
                stale = [k for k, s in self._dups.items()
                         if now - s.window_start >= self.suppress_window_s
                         and not s.suppressed]
                for k in stale:
                    del self._dups[k]
        return state

    # -- reading -------------------------------------------------------------------------

    def records(self, *, level: str | None = None,
                component: str | None = None) -> list[dict[str, Any]]:
        """Retained records oldest-first, optionally filtered."""
        with self._lock:
            records = list(self._records)
        if level is not None:
            floor = _level_value(level)
            records = [r for r in records if _level_value(r["level"]) >= floor]
        if component is not None:
            records = [r for r in records if r["component"] == component]
        return records

    def export_jsonl(self) -> str:
        """The retained buffer as JSON lines (CI artifacts, crash dumps)."""
        return "".join(json.dumps(record, default=str) + "\n"
                       for record in self.records())

    def describe(self) -> dict[str, Any]:
        with self._lock:
            retained = len(self._records)
        return {
            "enabled": self.enabled,
            "retained": retained,
            "total_records": self.total_records,
            "total_suppressed": self.total_suppressed,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class ComponentLogger:
    """Cheap facade binding one component name to the shared :class:`EventLog`."""

    __slots__ = ("_log", "component")

    def __init__(self, log: EventLog, component: str) -> None:
        self._log = log
        self.component = component

    def info(self, event: str, **fields: Any) -> dict[str, Any] | None:
        return self._log.emit("info", self.component, event, **fields)

    def warning(self, event: str, **fields: Any) -> dict[str, Any] | None:
        return self._log.emit("warning", self.component, event, **fields)

    def error(self, event: str, **fields: Any) -> dict[str, Any] | None:
        return self._log.emit("error", self.component, event, **fields)
