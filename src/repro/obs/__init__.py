"""Observability: metrics registry, trace spans, exporters, slow-query log.

One :class:`Observability` instance rides on each
:class:`~repro.core.system.PolystorePlusPlus` deployment (``system.obs``)
and is the single place every layer reports into:

* sessions count requests and plan-cache outcomes and open the root
  *request* span (sampled at ``SystemConfig.obs_trace_sample_rate``),
* the executor opens stage and operator spans and feeds per-operator
  latency histograms from the run's :class:`TaskRecord` stream,
* materialized views report refresh kind/latency/delta sizes,
* the durability layer reports WAL append/fsync latency, snapshot
  durations and recovery replay counts.

Everything is a no-op (one attribute check) when ``obs_enabled`` is off,
and span creation additionally requires a *sampled* request to be active on
the current thread — counters always count, spans only exist inside
sampled traces.  Export via :meth:`PolystorePlusPlus.export_prometheus`
and :meth:`PolystorePlusPlus.export_chrome_trace`.
"""

from __future__ import annotations

import random
from typing import Any

from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    parse_prometheus_text,
    prometheus_text,
)
from repro.obs.health import (
    DEFAULT_OBJECTIVES,
    SloObjective,
    SloTracker,
    run_checks,
    worst_status,
)
from repro.obs.log import ComponentLogger, EventLog
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import Profile, SamplingProfiler
from repro.obs.slowlog import SlowQueryLog, stage_breakdown
from repro.obs.trace import Span, Tracer, ancestors, span_tree

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "SlowQueryLog",
    "EventLog",
    "ComponentLogger",
    "SamplingProfiler",
    "Profile",
    "SloTracker",
    "SloObjective",
    "DEFAULT_OBJECTIVES",
    "run_checks",
    "worst_status",
    "prometheus_text",
    "parse_prometheus_text",
    "chrome_trace",
    "chrome_trace_json",
    "span_tree",
    "ancestors",
    "stage_breakdown",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
]


class Observability:
    """The per-deployment observability hub (registry + tracer + slow log).

    Core metric families are pre-registered as attributes so instrumented
    hot paths pay one attribute access, not a name lookup, per event.
    """

    def __init__(self, *, enabled: bool = True, sample_rate: float = 1.0,
                 slow_query_ms: float = 250.0, span_buffer: int = 8192,
                 profile_hz: float = 67.0, log_capacity: int = 2048,
                 log_level: str = "info",
                 rng: random.Random | None = None) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(enabled=enabled, sample_rate=sample_rate,
                             buffer_size=span_buffer, rng=rng)
        self.slow_log = SlowQueryLog(threshold_ms=slow_query_ms)
        #: Structured, trace-correlated event log (see repro.obs.log).
        self.events = EventLog(self.tracer, enabled=enabled,
                               capacity=log_capacity, level=log_level)
        #: Background sampling wall-clock profiler; built but not started —
        #: the system starts it when ``obs_profile_enabled`` is set.
        self.profiler = SamplingProfiler(self.tracer, hz=profile_hz)
        #: SLO burn-rate tracker over this registry's metric families.
        self.slos = SloTracker(self.registry)
        reg = self.registry
        # -- session layer ---------------------------------------------------------------
        self.requests_total = reg.counter(
            "polystore_requests_total",
            "Session requests (prepared runs and one-shot executes).",
            ("mode",))
        self.request_seconds = reg.histogram(
            "polystore_request_seconds",
            "End-to-end request wall latency.", ("mode",))
        self.plan_cache_total = reg.counter(
            "polystore_plan_cache_total",
            "Plan-cache lookups by outcome (hit, miss, reoptimized).",
            ("outcome",))
        self.slow_queries_total = reg.counter(
            "polystore_slow_queries_total",
            "Requests captured by the slow-query log.")
        # -- serving tier ----------------------------------------------------------------
        self.serve_requests_total = reg.counter(
            "polystore_serve_requests_total",
            "Server requests finished, by tenant and outcome "
            "(ok, coalesced, error, cancelled, deadline).",
            ("tenant", "outcome"))
        self.serve_rejects_total = reg.counter(
            "polystore_serve_rejects_total",
            "Server requests rejected before execution, by tenant and "
            "reason (overloaded, quota, deadline, shutdown).",
            ("tenant", "reason"))
        self.serve_request_seconds = reg.histogram(
            "polystore_serve_request_seconds",
            "Server request wall latency including admission queueing.",
            ("tenant",))
        self.serve_queue_wait_seconds = reg.histogram(
            "polystore_serve_queue_wait_seconds",
            "Time requests spent queued in admission control.", ("tenant",))
        self.serve_coalesced_total = reg.counter(
            "polystore_serve_coalesced_total",
            "Requests served by attaching to an identical in-flight "
            "execution.", ("tenant",))
        self.serve_queue_depth = reg.gauge(
            "polystore_serve_queue_depth",
            "Admission queue depth per tenant (sampled at scrape).",
            ("tenant",))
        self.serve_sessions_busy = reg.gauge(
            "polystore_serve_sessions_busy",
            "Busy sessions in a server's bounded session pool.")
        # -- executor --------------------------------------------------------------------
        self.operators_total = reg.counter(
            "polystore_operators_total",
            "Operators executed, by kind.", ("kind",))
        self.operator_seconds = reg.histogram(
            "polystore_operator_seconds",
            "Per-operator charged latency, by kind.", ("kind",))
        # -- materialized views ----------------------------------------------------------
        self.view_refreshes_total = reg.counter(
            "polystore_view_refreshes_total",
            "View refreshes by outcome kind (incremental, full, noop).",
            ("view", "kind"))
        self.view_refresh_seconds = reg.histogram(
            "polystore_view_refresh_seconds",
            "View refresh charged latency.", ("view",))
        self.view_delta_rows = reg.histogram(
            "polystore_view_delta_rows",
            "Input delta rows absorbed per refresh.", ("view",),
            buckets=SIZE_BUCKETS)
        # -- durability ------------------------------------------------------------------
        self.wal_appends_total = reg.counter(
            "polystore_wal_appends_total",
            "WAL records appended, per store.", ("engine",))
        self.wal_fsync_seconds = reg.histogram(
            "polystore_wal_fsync_seconds",
            "WAL fsync latency, per store.", ("engine",))
        self.snapshot_seconds = reg.histogram(
            "polystore_snapshot_seconds",
            "Checkpoint snapshot write duration, per store.", ("engine",))
        self.checkpoints_total = reg.counter(
            "polystore_checkpoints_total",
            "Checkpoints completed, per store.", ("engine",))
        self.recovery_replayed_total = reg.counter(
            "polystore_recovery_replayed_total",
            "WAL-tail records replayed during recovery, per store.",
            ("engine",))
        # -- gauges (refreshed at collection time) ---------------------------------------
        self.changelog_retained_batches = reg.gauge(
            "polystore_changelog_retained_batches",
            "Delta batches currently retained in an engine's changelog.",
            ("engine",))
        self.changelog_retained_rows = reg.gauge(
            "polystore_changelog_retained_rows",
            "Entry rows currently retained in an engine's changelog.",
            ("engine",))
        self.view_rows = reg.gauge(
            "polystore_view_rows",
            "Rows currently materialized per view.", ("view",))
        # -- structured log / profiler ---------------------------------------------------
        self.log_records_total = reg.counter(
            "polystore_log_records_total",
            "Structured log records retained, by component and level.",
            ("component", "level"))
        self.log_suppressed_total = reg.counter(
            "polystore_log_suppressed_total",
            "Structured log records dropped by duplicate suppression.",
            ("component",))
        self.profile_samples_total = reg.counter(
            "polystore_profile_samples_total",
            "Thread stacks captured by the sampling profiler.")
        # -- health / SLOs (refreshed by health() and at scrape) -------------------------
        self.health_status = reg.gauge(
            "polystore_health_status",
            "Component health (1 ok, 0.5 warn, 0 fail), by check.",
            ("check",))
        self.slo_objective = reg.gauge(
            "polystore_slo_objective",
            "Declared objective (good fraction) per SLO.", ("slo",))
        self.slo_error_ratio = reg.gauge(
            "polystore_slo_error_ratio",
            "Observed error ratio per SLO over a trailing window.",
            ("slo", "window"))
        self.slo_burn_rate = reg.gauge(
            "polystore_slo_burn_rate",
            "Error-budget burn rate (error_ratio / budget) per SLO and "
            "window; 1.0 spends the budget exactly at the sustainable pace.",
            ("slo", "window"))
        # Counter hookup happens after family registration: the event log
        # and profiler are constructed before their families exist.
        self.events.records_counter = self.log_records_total
        self.events.suppressed_counter = self.log_suppressed_total
        self.profiler.samples_counter = self.profile_samples_total

    # -- constructors --------------------------------------------------------------------

    _disabled_singleton: "Observability | None" = None

    @classmethod
    def disabled(cls) -> "Observability":
        """The shared inert hub: every record/span call is a cheap no-op.

        A process-wide singleton — executors are constructed per run, and an
        un-instrumented deployment must not re-register every metric family
        each time.
        """
        if cls._disabled_singleton is None:
            cls._disabled_singleton = cls(enabled=False, sample_rate=0.0,
                                          span_buffer=1)
        return cls._disabled_singleton

    # -- structured logging --------------------------------------------------------------

    def logger(self, component: str) -> ComponentLogger:
        """A named structured logger bound to this deployment's event log."""
        return self.events.logger(component)

    # -- slow-query capture --------------------------------------------------------------

    def consider_slow(self, *, program: str, mode: str,
                      fingerprint: str | None, report: Any,
                      elapsed_wall_s: float,
                      trace_id: int | None = None) -> None:
        """Offer one finished request to the slow-query log.

        When the request was traced and the sampling profiler is running,
        the request's aggregated stack samples are claimed and attached to
        the capture — the entry answers "where did the wall time go", not
        just "which stages were slow".
        """
        if not self.enabled:
            return
        profile = None
        if self.profiler.running:
            trace_profile = self.profiler.take_trace(trace_id)
            if trace_profile is not None and len(trace_profile):
                profile = trace_profile.to_dict()
        entry = self.slow_log.consider(program=program, mode=mode,
                                       fingerprint=fingerprint, report=report,
                                       elapsed_wall_s=elapsed_wall_s,
                                       profile=profile)
        if entry is not None:
            self.slow_queries_total.inc()

    # -- health / SLO gauges -------------------------------------------------------------

    def sample_slos(self) -> list[Any]:
        """Evaluate every SLO and refresh the ``polystore_slo_*`` gauges."""
        if not self.enabled:
            return []
        results = self.slos.sample()
        for result in results:
            self.slo_objective.set(result["objective"], slo=result["slo"])
            for window in result["windows"]:
                label = f"{int(window['window_s'])}s"
                self.slo_error_ratio.set(window["error_ratio"],
                                         slo=result["slo"], window=label)
                self.slo_burn_rate.set(window["burn_rate"],
                                       slo=result["slo"], window=label)
        return results

    def set_health_gauges(self, checks: list[Any]) -> None:
        """Mirror check results into ``polystore_health_status``."""
        if not self.enabled:
            return
        scores = {"ok": 1.0, "warn": 0.5, "fail": 0.0}
        for check in checks:
            self.health_status.set(scores.get(check["status"], 0.0),
                                   check=check["name"])

    # -- introspection -------------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Configuration and buffer occupancy for ``system.describe()``."""
        return {
            "enabled": self.enabled,
            "trace_sample_rate": self.tracer.sample_rate,
            "requests_seen": self.tracer.requests_seen,
            "requests_sampled": self.tracer.requests_sampled,
            "spans_buffered": len(self.tracer),
            "slow_query_threshold_ms": self.slow_log.threshold_ms,
            "slow_queries_captured": self.slow_log.total_captured,
            "log": self.events.describe(),
            "profiler": self.profiler.describe(),
        }
