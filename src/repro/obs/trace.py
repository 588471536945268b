"""Hierarchical trace spans threaded through one per-thread context.

A :class:`Span` is one timed region of work — a session request, a compile,
an executor stage, one operator, a view refresh, a WAL fsync.  Spans form a tree: the :class:`Tracer` keeps the
*current* span in thread-local storage, and every span opened while another
is current becomes its child.  A request's operators all run on the thread that opened it, so they nest with no hand-off; a thread
that serves a request of its own (a serve worker, a ``Session.submit`` pool
thread) opens its own :meth:`Tracer.request`.

Sampling happens once per request (:meth:`Tracer.request`): a sampled-out
request opens *no* spans at all — every child site checks "is a trace
active on this thread?" and returns a no-op, so the instrumented hot path
costs one thread-local read.  Metrics are recorded independently of
sampling (a sampled-out request still counts in every counter).

Finished spans land in a bounded ring buffer; the Chrome ``trace_event``
exporter (:mod:`repro.obs.export`) turns its contents into a file Perfetto
or ``about:tracing`` can open.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from typing import Any, Iterator

#: Monotonic span/trace id source, shared process-wide (ids only need to be
#: unique, not secret).
_ids = itertools.count(1)


class Span:
    """One timed region; finished spans are immutable in practice."""

    __slots__ = ("span_id", "trace_id", "parent_id", "name", "category",
                 "start_s", "end_s", "thread_id", "thread_name", "attrs")

    def __init__(self, name: str, category: str, trace_id: int,
                 parent_id: int | None, attrs: dict[str, Any]) -> None:
        self.span_id = next(_ids)
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start_s = time.perf_counter()
        self.end_s: float | None = None
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        self.attrs = attrs

    @property
    def duration_s(self) -> float:
        """Span duration (0.0 while still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, **attrs: Any) -> None:
        """Attach attributes (rows, cache outcome, resync cause, ...)."""
        self.attrs.update(attrs)

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, cat={self.category!r}, "
                f"id={self.span_id}, parent={self.parent_id})")


class _SpanScope:
    """Context manager closing one span (and restoring the previous current)."""

    __slots__ = ("_tracer", "span", "_previous")

    def __init__(self, tracer: "Tracer", span: Span | None,
                 previous: Span | None) -> None:
        self._tracer = tracer
        self.span = span
        self._previous = previous

    def __enter__(self) -> Span | None:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.span is None:
            return
        self.span.end_s = time.perf_counter()
        if exc is not None:
            self.span.attrs.setdefault("error", repr(exc))
        self._tracer._finish(self.span, self._previous)


class _UnsampledScope:
    """A sampled-out request: marks its thread while open, so a request
    nested in it (a ``serve:`` request's ``request:`` run) records nothing
    and makes no second sampling decision.  The mark goes on exit, raising
    or not."""

    __slots__ = ("_local",)

    def __init__(self, local: threading.local) -> None:
        self._local = local

    def __enter__(self) -> None:
        self._local.unsampled = True

    def __exit__(self, exc_type, exc, tb) -> None:
        self._local.unsampled = False


class Tracer:
    """Per-deployment span factory, sampler and ring buffer."""

    def __init__(self, *, enabled: bool = True, sample_rate: float = 1.0,
                 buffer_size: int = 8192, rng: random.Random | None = None) -> None:
        if not (0.0 <= sample_rate <= 1.0):
            raise ValueError("sample_rate must be within [0, 1]")
        self.enabled = enabled
        self.sample_rate = sample_rate
        self._rng = rng if rng is not None else random.Random()
        self._local = threading.local()
        #: Mirror of every thread's current span, keyed by thread ident.
        #: Thread-locals are invisible to other threads, but the sampling
        #: profiler must attribute a sampled stack to the span open on the
        #: *sampled* thread — so every current-span install also updates
        #: this map.  Plain dict ops are atomic under the GIL; a sampler
        #: reading a stale entry merely misattributes one sample.
        self._thread_spans: dict[int, Span] = {}
        self._lock = threading.Lock()
        self._finished: deque[Span] = deque(maxlen=buffer_size)
        #: Requests that arrived while tracing (sampled or not) / sampled.
        self.requests_seen = 0
        self.requests_sampled = 0

    # -- span creation -------------------------------------------------------------------

    def request(self, name: str, **attrs: Any) -> _SpanScope | _UnsampledScope:
        """Open a root (request) span, subject to the sampling decision.

        A sampled-out request returns a scope that records nothing and
        installs no span, so every downstream :meth:`span` call
        short-circuits on "no current span".  A request opened inside
        another makes no second sampling decision: inside a sampled one it
        nests — a one-shot ``execute`` whose prepare and run both open
        request scopes produces one tree — and inside a sampled-out one it
        records nothing either.
        """
        if not self.enabled:
            return _SpanScope(self, None, None)
        current = self._current_span()
        if current is not None:
            return self.span(name, "session", **attrs)
        if getattr(self._local, "unsampled", False):
            return _SpanScope(self, None, None)  # inside a sampled-out request
        with self._lock:
            self.requests_seen += 1
            sampled = (self.sample_rate >= 1.0
                       or self._rng.random() < self.sample_rate)
            if sampled:
                self.requests_sampled += 1
        if not sampled:
            return _UnsampledScope(self._local)
        span = Span(name, "session", trace_id=next(_ids), parent_id=None,
                    attrs=attrs)
        self._set_current(span)
        return _SpanScope(self, span, None)

    def span(self, name: str, category: str, **attrs: Any) -> _SpanScope:
        """Open a child of the current span; no-op when no trace is active."""
        if not self.enabled:
            return _SpanScope(self, None, None)
        parent = self._current_span()
        if parent is None:
            return _SpanScope(self, None, None)
        span = Span(name, category, trace_id=parent.trace_id,
                    parent_id=parent.span_id, attrs=attrs)
        self._set_current(span)
        return _SpanScope(self, span, parent)

    def current(self) -> Span | None:
        """The span currently open on this thread, if any."""
        if not self.enabled:
            return None
        return self._current_span()

    # -- internals -----------------------------------------------------------------------

    def _current_span(self) -> Span | None:
        return getattr(self._local, "span", None)

    def _set_current(self, span: Span | None) -> None:
        """Install ``span`` as this thread's current, mirroring it for samplers."""
        self._local.span = span
        ident = threading.get_ident()
        if span is None:
            self._thread_spans.pop(ident, None)
        else:
            self._thread_spans[ident] = span

    def current_spans_by_thread(self) -> dict[int, Span]:
        """Snapshot of each thread's current span (profiler attribution)."""
        return dict(self._thread_spans)

    def _finish(self, span: Span, previous: Span | None) -> None:
        self._set_current(previous)
        with self._lock:
            self._finished.append(span)

    # -- reading -------------------------------------------------------------------------

    def spans(self) -> list[Span]:
        """Finished spans currently retained, oldest first."""
        with self._lock:
            return list(self._finished)

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)


def span_tree(spans: list[Span]) -> dict[int | None, list[Span]]:
    """Index ``spans`` by parent id (test helper for nesting assertions)."""
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    return children


def ancestors(span: Span, spans: list[Span]) -> Iterator[Span]:
    """Walk from ``span``'s parent to the root of its trace."""
    by_id = {s.span_id: s for s in spans}
    current = span
    while current.parent_id is not None:
        parent = by_id.get(current.parent_id)
        if parent is None:
            return
        yield parent
        current = parent
