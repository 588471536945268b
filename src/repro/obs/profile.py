"""Background sampling wall-clock profiler with span attribution.

A :class:`SamplingProfiler` wakes at a configurable rate, grabs every
thread's Python stack via ``sys._current_frames()``, and folds each stack
into the *collapsed* form flamegraph tooling eats (``mod.func;mod.func N``).
Each sample is additionally attributed to the span currently open on the
sampled thread — read from the tracer's cross-thread mirror
(:meth:`Tracer.current_spans_by_thread`) — so one request's samples can be
pulled out afterwards even though the request ran on a worker thread.  That is
what lets the slow-query log attach "here is where the wall time went" to
every capture (:meth:`Observability.consider_slow`).

Sampling is wall-clock: a thread blocked in ``time.sleep`` or a lock is
sampled exactly like one burning CPU, which is what you want when the
question is "why was this request slow".  The profiler is off by default
(``SystemConfig.obs_profile_enabled``) and costs nothing when not running.

Exports: ``Profile.collapsed()`` (flamegraph.pl / inferno input) and
``Profile.speedscope()`` (https://speedscope.app JSON, "sampled" type).
"""

from __future__ import annotations

import sys
import threading
from collections import Counter, OrderedDict
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .metrics import Family
    from .trace import Tracer

def _frame_label(frame: Any) -> str:
    """``module.function`` label for one frame (file stem, not full path)."""
    code = frame.f_code
    filename = code.co_filename
    slash = max(filename.rfind("/"), filename.rfind("\\"))
    stem = filename[slash + 1:]
    if stem.endswith(".py"):
        stem = stem[:-3]
    return f"{stem}.{code.co_name}"


def collapse_frame(frame: Any) -> str:
    """Fold one thread's stack into root-first ``;``-joined frame labels."""
    labels: list[str] = []
    current = frame
    while current is not None:
        labels.append(_frame_label(current))
        current = current.f_back
    labels.reverse()
    return ";".join(labels)


class Profile:
    """An aggregate of collapsed-stack samples (whole process or one trace)."""

    __slots__ = ("counts", "period_s")

    def __init__(self, counts: Counter[str] | None = None,
                 period_s: float = 0.0) -> None:
        self.counts: Counter[str] = counts if counts is not None else Counter()
        self.period_s = period_s

    @property
    def sample_count(self) -> int:
        return sum(self.counts.values())

    def add(self, stack: str, count: int = 1) -> None:
        self.counts[stack] += count

    def merge(self, other: "Profile") -> None:
        self.counts.update(other.counts)

    def hottest_frame(self) -> str | None:
        """The leaf frame that appears in the most samples."""
        leaves: Counter[str] = Counter()
        for stack, count in self.counts.items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] += count
        if not leaves:
            return None
        return leaves.most_common(1)[0][0]

    # -- exports -------------------------------------------------------------------------

    def collapsed(self) -> str:
        """Flamegraph collapsed-stack text: one ``stack count`` line each."""
        lines = [f"{stack} {count}"
                 for stack, count in sorted(self.counts.items())]
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, name: str = "polystore") -> dict[str, Any]:
        """Speedscope "sampled" profile document (open at speedscope.app)."""
        frame_index: dict[str, int] = {}
        frames: list[dict[str, str]] = []
        samples: list[list[int]] = []
        weights: list[float] = []
        period = self.period_s if self.period_s > 0 else 1.0
        for stack, count in sorted(self.counts.items()):
            indices = []
            for label in stack.split(";"):
                index = frame_index.get(label)
                if index is None:
                    index = frame_index[label] = len(frames)
                    frames.append({"name": label})
                indices.append(index)
            samples.append(indices)
            weights.append(count * period)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "exporter": "repro.obs.profile",
            "shared": {"frames": frames},
            "profiles": [{
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }],
        }

    def to_dict(self) -> dict[str, Any]:
        """Compact form attached to slow-query-log entries."""
        return {
            "samples": self.sample_count,
            "period_s": self.period_s,
            "hottest_frame": self.hottest_frame(),
            "collapsed": self.collapsed(),
        }

    def __len__(self) -> int:
        return len(self.counts)


class SamplingProfiler:
    """Daemon thread sampling every Python stack at ``hz``.

    Keeps one process-wide aggregate plus a bounded LRU of per-trace
    aggregates keyed by ``trace_id``.  ``take_trace()`` pops a request's
    profile (the slow-query log claims it); traces that never get claimed
    age out of the LRU.
    """

    def __init__(self, tracer: "Tracer", *, hz: float = 67.0,
                 max_traces: int = 64,
                 samples_counter: "Family | None" = None) -> None:
        if hz <= 0:
            raise ValueError("profiler hz must be positive")
        self.tracer = tracer
        self.hz = hz
        self.max_traces = max_traces
        self.samples_counter = samples_counter
        self._lock = threading.Lock()
        self._global = Profile(period_s=1.0 / hz)
        self._by_trace: OrderedDict[int, Profile] = OrderedDict()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        #: Thread idents the sampler must never attribute (its own).
        self._self_idents: set[int] = set()

    @property
    def period_s(self) -> float:
        return 1.0 / self.hz

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    # -- lifecycle -----------------------------------------------------------------------

    def start(self) -> None:
        """Start the sampling thread (idempotent)."""
        if self.running:
            return
        self._stop.clear()
        thread = threading.Thread(target=self._loop, name="obs-profiler",
                                  daemon=True)
        self._thread = thread
        thread.start()

    def stop(self, timeout_s: float = 2.0) -> None:
        """Stop sampling; retained profiles stay readable."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=timeout_s)
        self._thread = None

    def _loop(self) -> None:
        self._self_idents.add(threading.get_ident())
        while not self._stop.wait(self.period_s):
            self.sample_once()

    # -- sampling ------------------------------------------------------------------------

    def sample_once(self) -> int:
        """Take one sweep over all threads; returns the samples recorded."""
        frames = sys._current_frames()
        spans = self.tracer.current_spans_by_thread()
        recorded = 0
        with self._lock:
            for ident, frame in frames.items():
                if ident in self._self_idents:
                    continue
                stack = collapse_frame(frame)
                self._global.add(stack)
                recorded += 1
                span = spans.get(ident)
                if span is None:
                    continue
                trace = self._by_trace.get(span.trace_id)
                if trace is None:
                    trace = Profile(period_s=self.period_s)
                    self._by_trace[span.trace_id] = trace
                    while len(self._by_trace) > self.max_traces:
                        self._by_trace.popitem(last=False)
                else:
                    self._by_trace.move_to_end(span.trace_id)
                trace.add(stack)
        counter = self.samples_counter
        if counter is not None and recorded:
            counter.inc(recorded)
        return recorded

    # -- reading -------------------------------------------------------------------------

    def profile(self, trace_id: int | None = None) -> Profile:
        """A copy of the process-wide aggregate, or one trace's samples."""
        with self._lock:
            if trace_id is None:
                return Profile(Counter(self._global.counts), self.period_s)
            trace = self._by_trace.get(trace_id)
            counts = Counter(trace.counts) if trace is not None else Counter()
            return Profile(counts, self.period_s)

    def take_trace(self, trace_id: int | None) -> Profile | None:
        """Pop one trace's profile (slow-query log attachment); None if absent."""
        if trace_id is None:
            return None
        with self._lock:
            return self._by_trace.pop(trace_id, None)

    def describe(self) -> dict[str, Any]:
        with self._lock:
            return {
                "running": self.running,
                "hz": self.hz,
                "samples": self._global.sample_count,
                "traces_retained": len(self._by_trace),
            }
