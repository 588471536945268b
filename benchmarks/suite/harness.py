"""Measurement core of the benchmark suite: calibration, the timed loop, spans.

Nothing here knows a workload.  A workload object offers ``cycle`` (its op
classes in the fixed order of one mix cycle), ``args(cls, i)`` (op ``i``'s
inputs, built untimed), ``run(cls, args)`` (the timed call) and
``check(cls, args, result)`` (the untimed oracle); this module drives
them in a closed loop with one client thread, samples the calibration kernel
between chunks of timed work, and turns the raw samples into metrics.

**Calibration.**  This box's speed drifts: the same pure-Python loop takes
1.1 ms one second and 2.2 ms the next (see README.md for the measurements).
Every time-valued metric is therefore reported in *reference-machine units*:
``value * CAL_REF_MS / kernel_ms`` where ``kernel_ms`` is what
:func:`cal_kernel` cost on this machine around the moment the value was
measured.  The kernel, ``CAL_REF_MS`` and the estimators below are part of
the metric definitions and change only in a ``benchmark`` PR.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator

#: The kernel's cost on the (notional) reference machine, in milliseconds.
CAL_REF_MS = 2.0
#: Timed work between two kernel samples, in seconds.
CAL_EVERY_S = 0.15
#: Kernel runs per sample point; the fastest is kept (see ``cal_sample``).
CAL_BURST = 2
#: ``peak_rss_mb`` is read when this many timed cycles are done (or at the
#: end of a shorter phase): memory at a fixed amount of work, not at
#: however many ops this run's speed happened to fit.
RSS_CYCLES = 8

_CAL_ROWS = [(i, (i * 31) % 97, float((i * 37) % 997)) for i in range(20_000)]


def cal_kernel(rows: list[tuple[int, int, float]] = _CAL_ROWS) -> dict[int, float]:
    """The frozen calibration kernel: filter + dict group-sum over 20k tuples.

    Pure Python, allocates one dict and no GC-tracked garbage, touches
    ~2 MB — the same kind of work (tuple unpacking, float compares, dict
    updates) the system's row-at-a-time operators do.
    """
    acc: dict[int, float] = {}
    for _, group, amount in rows:
        if amount > 100.0:
            acc[group] = acc.get(group, 0.0) + amount
    return acc


def cal_sample() -> float:
    """Kernel cost right now in ms: the faster of ``CAL_BURST`` runs.

    Two kinds of interference hit this box.  Short preemptions (tens of
    microseconds to milliseconds) hit single runs; taking the faster run
    rejects them.  Slow periods (a second or more at 1.3-2x) hit every run
    in the burst alike, so they survive into the sample — which is the
    point: the timed work next to the sample was slowed by the same factor.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(CAL_BURST):
            start = time.perf_counter()
            cal_kernel()
            best = min(best, time.perf_counter() - start)
        return best * 1e3
    finally:
        if was_enabled:
            gc.enable()


def percentile(values: list[float], q: float) -> float:
    """``q`` in [0, 1] of ``values``, interpolated."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def fast(values: list[float]) -> float:
    """The *fast quartile*: 25th percentile of the (calibrated) samples.

    Interference on this box is one-sided (it only ever adds time), so a low
    quantile repeats better than the median; the 25th repeats better than
    the 10th when a class has only ~16 samples a run (README.md has the
    comparison over eight runs of each workload).
    """
    return percentile(values, 0.25)


def require(condition: bool, what: str) -> None:
    """Raise unless ``condition`` (``assert`` would vanish under ``-O``)."""
    if not condition:
        raise RuntimeError(f"benchmark self-check failed: {what}")


# -- spans --------------------------------------------------------------------------------


class Spans:
    """In-memory span recorder for the traced pass (Chrome ``trace_event``).

    Spans are recorded from the harness side only, around calls into a
    layer's public functions; nothing under ``src/`` is instrumented.
    """

    def __init__(self) -> None:
        self.events: list[tuple[str, int, int, int, int, Any]] = []
        self._stack: list[int] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, probe: Any = None) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.events.append((name, start, end, span_id, parent, probe))

    def durations_s(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in seconds."""
        return [(end - start) / 1e9
                for n, start, end, _, _, _ in self.events if n == name]

    def self_times_s(self) -> dict[str, float]:
        """Per-name self time: duration minus what child spans cover."""
        child_time: dict[int, int] = {}
        for _, start, end, _, parent, _ in self.events:
            child_time[parent] = child_time.get(parent, 0) + (end - start)
        totals: dict[str, float] = {}
        for name, start, end, span_id, _, _ in self.events:
            own = (end - start) - child_time.get(span_id, 0)
            totals[name] = totals.get(name, 0.0) + own / 1e9
        return totals

    def write(self, path: str) -> None:
        """Dump as a Chrome/Perfetto-loadable ``trace_event`` document."""
        origin = min((start for _, start, *_ in self.events), default=0)
        events = [{
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
            "args": {"span_id": span_id, "parent_id": parent, "probe": probe},
        } for name, start, end, span_id, parent, probe in self.events]
        # Replace atomically: a reader never sees a half-written document.
        with open(f"{path}.{os.getpid()}", "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        os.replace(handle.name, path)


_NO_SPAN = nullcontext()


def no_span(name: str, probe: Any = None) -> Any:
    """Stand-in for :meth:`Spans.span` on the untraced pass."""
    return _NO_SPAN


# -- the timed loop -----------------------------------------------------------------------


class Recorder:
    """Raw samples of one timed phase."""

    def __init__(self) -> None:
        #: Per validated op, in order: class, latency (s), chunk, cycle.
        self.op_cls: list[str] = []
        self.op_lat: list[float] = []
        self.op_chunk: list[int] = []
        self.op_cycle: list[int] = []
        #: Per cycle: process-CPU seconds (all threads), kernel excluded.
        self.cycle_cpu: list[float] = []
        #: Chunks closed so far; ``kernel[k]`` was sampled just before chunk
        #: ``k`` and ``kernel[k + 1]`` just after it.
        self.chunks = 0
        self.kernel: list[float] = []
        self.kernel_wall_s = 0.0
        self.kernel_cpu_s = 0.0
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_mb = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def sample_kernel(self) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.kernel.append(cal_sample())
        self.kernel_wall_s += time.perf_counter() - wall
        self.kernel_cpu_s += time.process_time() - cpu

    def scales(self) -> list[float]:
        """Per op: the factor that turns its raw time into reference time.

        A chunk's local kernel cost is the mean of the samples around it.
        """
        local = [CAL_REF_MS * 2.0 / (self.kernel[k] + self.kernel[k + 1])
                 for k in range(self.chunks)]
        return [local[k] for k in self.op_chunk]


def run_phase(workload: Any, first_index: int, *, seconds: float | None = None,
              cycles: int | None = None, min_cycles: int = 1,
              span: Callable[..., Any] = no_span) -> tuple[Recorder, int]:
    """Drive whole mix cycles until ``seconds`` elapsed or ``cycles`` ran.

    Returns the samples and the next free op index.  An op that raises or
    fails its check is counted in ``failed``; it never aborts the phase and
    its latency is not recorded.
    """
    cycle = workload.cycle
    rec = Recorder()
    perf, cpu = time.perf_counter, time.process_time
    index = first_index
    done = 0
    rec.sample_kernel()
    started = chunk_start = perf()
    while True:
        cycle_cpu = cpu() - rec.kernel_cpu_s
        for cls in cycle:
            rec.attempted += 1
            try:
                args = workload.args(cls, index)
                with span(cls, index):
                    t0 = perf()
                    result = workload.run(cls, args)
                    elapsed = perf() - t0
                if workload.check(cls, args, result):
                    rec.op_cls.append(cls)
                    rec.op_lat.append(elapsed)
                    rec.op_chunk.append(rec.chunks)
                    rec.op_cycle.append(done)
                else:
                    rec.fail(f"{cls}#{index}: wrong result")
            except Exception:  # the oracle counts failures; it never aborts
                rec.fail(f"{cls}#{index}: {traceback.format_exc(limit=3)}")
            index += 1
            if perf() - chunk_start >= CAL_EVERY_S:
                rec.chunks += 1
                rec.sample_kernel()
                chunk_start = perf()
        rec.cycle_cpu.append(cpu() - rec.kernel_cpu_s - cycle_cpu)
        done += 1
        if done == RSS_CYCLES:
            rec.peak_rss_mb = _max_rss_mb()
        if cycles is not None:
            if done >= cycles:
                break
        elif done >= min_cycles and perf() - started >= seconds:
            break
    rec.chunks += 1
    rec.sample_kernel()
    rec.wall_s = perf() - started - rec.kernel_wall_s
    rec.peak_rss_mb = rec.peak_rss_mb or _max_rss_mb()
    return rec, index


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- from samples to metrics --------------------------------------------------------------


def summarize(rec: Recorder) -> dict[str, float]:
    """End-to-end and witness metrics of one phase, raw and calibrated.

    * latencies: every op is rescaled by its chunk's local kernel cost, then
      the fast quartile / median / p99 are taken over the rescaled values;
    * ``ops_per_s`` and ``cpu_ms_per_op`` are the *median mix cycle's*: per
      cycle, ops / (sum of the ops' rescaled latencies) and rescaled process
      CPU / ops.  A cycle hit by a stall of the box (a slow fsync, a stolen
      core) is one outlier among many instead of a share of the total.
    """
    scale = rec.scales()
    out: dict[str, float] = {
        "harness.cal_ms": statistics.median(rec.kernel),
        "harness.cal_overhead_frac":
            rec.kernel_wall_s / (rec.wall_s + rec.kernel_wall_s),
        "harness.timed_wall_s": rec.wall_s,
        "harness.failed_frac": rec.failed / max(rec.attempted, 1),
        "peak_rss_mb": rec.peak_rss_mb,
    }
    # Per cycle: [ops, raw seconds in calls, rescaled seconds in calls].
    per_cycle = [[0, 0.0, 0.0] for _ in rec.cycle_cpu]
    by_class: dict[str, tuple[list[float], list[float]]] = {}
    for cls, lat, factor, cyc in zip(rec.op_cls, rec.op_lat, scale, rec.op_cycle):
        slot = per_cycle[cyc]
        slot[0] += 1
        slot[1] += lat
        slot[2] += lat * factor
        raw, scaled = by_class.setdefault(cls, ([], []))
        raw.append(lat * 1e3)
        scaled.append(lat * factor * 1e3)
    full = [(n, raw, cal, cpu) for (n, raw, cal), cpu
            in zip(per_cycle, rec.cycle_cpu) if n]
    if full:
        median = statistics.median
        out["ops_per_s"] = 1.0 / median(cal / n for n, _, cal, _ in full)
        out["ops_per_s.raw"] = 1.0 / median(raw / n for n, raw, _, _ in full)
        out["cpu_ms_per_op"] = median(
            cpu * cal / raw / n for n, raw, cal, cpu in full) * 1e3
        out["cpu_ms_per_op.raw"] = median(cpu / n for n, _, _, cpu in full) * 1e3
    for cls, (raw, scaled) in by_class.items():
        out[f"{cls}_fast_ms"] = fast(scaled)
        out[f"{cls}_fast_ms.raw"] = fast(raw)
        out[f"harness.{cls}_p50_ms"] = statistics.median(scaled)
        out[f"harness.{cls}_p50_ms.raw"] = statistics.median(raw)
        out[f"harness.{cls}_p99_ms"] = percentile(scaled, 0.99)
        out[f"harness.{cls}_p99_ms.raw"] = percentile(raw, 0.99)
        out[f"harness.{cls}_max_ms.raw"] = max(raw)
        out[f"harness.{cls}_n"] = len(raw)
    return out


# -- onion probes -------------------------------------------------------------------------


class _ProbeSet:
    """Adapts named callables to the ``cycle``/``run``/``check`` shape."""

    def __init__(self, probes: dict[str, Callable[[int], Any]]) -> None:
        self.cycle = tuple(probes)
        self._probes = probes

    def args(self, cls: str, index: int) -> int:
        return index

    def run(self, cls: str, args: int) -> Any:
        return self._probes[cls](args)

    def check(self, cls: str, args: int, result: Any) -> bool:
        return True


def probe(probes: dict[str, Callable[[int], Any]], rounds: int,
          span: Callable[..., Any] = no_span) -> dict[str, float]:
    """Calibrated fast-quartile cost in **seconds** of each named callable.

    The callables run round-robin (one of each per round), so a slow second
    hits every depth of an onion alike and the differences between depths —
    a layer's self time — stay meaningful.  A probe that raises is a bug in
    the harness, not a measurement, and propagates.
    """
    rec, _ = run_phase(_ProbeSet(probes), 0, cycles=rounds, span=span)
    require(not rec.failed, f"probe raised: {rec.errors[:1]}")
    scaled: dict[str, list[float]] = {name: [] for name in probes}
    for name, lat, factor in zip(rec.op_cls, rec.op_lat, rec.scales()):
        scaled[name].append(lat * factor)
    return {name: fast(values) for name, values in scaled.items()}
