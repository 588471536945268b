"""A ring-buffer slow-query log.

Every session request whose measured wall time crosses the configured
threshold is captured here with enough context to debug it after the fact:
the program name, the plan fingerprint (so the offending *plan* can be
found in the cache or re-explained), the execution mode, and a per-stage
breakdown of where the time went — distilled from the run's
:class:`~repro.middleware.executor.report.ExecutionReport` rather than
recorded separately.

The buffer is bounded (oldest entries fall off) and thread-safe; reading it
returns plain dictionaries, newest first.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.middleware.executor.report import ExecutionReport


def stage_breakdown(report: "ExecutionReport") -> list[dict[str, Any]]:
    """Per-stage time summary of one report (slow-log and export payloads)."""
    stages: dict[int, dict[str, Any]] = {}
    for record in report.records:
        stage = stages.setdefault(record.stage, {
            "stage": record.stage, "operators": 0,
            "wall_time_s": 0.0, "charged_time_s": 0.0, "kinds": [],
        })
        stage["operators"] += 1
        stage["wall_time_s"] += record.wall_time_s
        stage["charged_time_s"] += record.charged_time_s
        if record.kind not in stage["kinds"]:
            stage["kinds"].append(record.kind)
    return [stages[index] for index in sorted(stages)]


class SlowQueryLog:
    """Bounded buffer of the slowest requests' post-mortems."""

    def __init__(self, *, threshold_ms: float = 250.0,
                 capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("slow-query log capacity must be at least 1")
        self.threshold_ms = threshold_ms
        self._lock = threading.Lock()
        self._entries: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.total_captured = 0

    def consider(self, *, program: str, mode: str, fingerprint: str | None,
                 report: "ExecutionReport", elapsed_wall_s: float,
                 profile: dict[str, Any] | None = None
                 ) -> dict[str, Any] | None:
        """Capture the run if it crossed the threshold; returns the entry.

        ``elapsed_wall_s`` is the caller-measured request wall time (it
        covers parameter binding and snapshot validation, not only the
        executor's own elapsed time).  ``profile`` is the request's
        collapsed-stack sample aggregate when the sampling profiler was
        running (see :meth:`Observability.consider_slow`).
        """
        if elapsed_wall_s * 1000.0 < self.threshold_ms:
            return None
        entry = {
            "program": program,
            "mode": mode,
            "plan_fingerprint": fingerprint,
            "elapsed_wall_s": elapsed_wall_s,
            "charged_time_s": report.total_time_s,
            "threshold_ms": self.threshold_ms,
            "operators": len(report.records),
            "stages": stage_breakdown(report),
            "slowest_ops": self._slowest_ops(report),
            "profile": profile,
            "captured_at": time.time(),
        }
        with self._lock:
            self._entries.append(entry)
            self.total_captured += 1
        return entry

    @staticmethod
    def _slowest_ops(report: "ExecutionReport", top: int = 3) -> list[dict[str, Any]]:
        ranked = sorted(report.records, key=lambda r: r.wall_time_s,
                        reverse=True)[:top]
        return [{"op_id": r.op_id, "kind": r.kind, "engine": r.engine,
                 "wall_time_s": r.wall_time_s,
                 "charged_time_s": r.charged_time_s} for r in ranked]

    def entries(self) -> list[dict[str, Any]]:
        """Captured entries, newest first."""
        with self._lock:
            return [dict(entry) for entry in reversed(self._entries)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
