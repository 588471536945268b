"""The runtime statistics store the adaptive feedback loop revolves around.

One :class:`RuntimeStats` instance lives on each
:class:`~repro.core.system.PolystorePlusPlus` deployment.  The executor
records every non-cached operator's charged time, output cardinality and
input cardinality against the operator's structural fingerprint.  All
observations are smoothed with an exponentially weighted moving average
(EWMA), so a single outlier run cannot whipsaw the optimizer, and all
methods are thread-safe — sessions execute concurrently against one store.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace


def _ewma(current: float | None, sample: float, smoothing: float) -> float:
    """Blend ``sample`` into ``current`` (first sample taken verbatim)."""
    if current is None:
        return sample
    return (1.0 - smoothing) * current + smoothing * sample


def drift_ratio(estimated: float, observed: float) -> float:
    """How far apart an estimate and an observation are, as a >=1 ratio."""
    lo, hi = sorted((max(1.0, estimated), max(1.0, observed)))
    return hi / lo


@dataclass
class ObservedOperator:
    """EWMA-smoothed observations for one operator fingerprint."""

    fingerprint: str
    kind: str
    rows_out: float = 0.0
    rows_in: float = 0.0
    samples: int = 0
    #: Charged seconds per execution target (engine or accelerator name).
    times_s: dict[str, float] = field(default_factory=dict)

    @property
    def selectivity(self) -> float | None:
        """Observed output/input row ratio (``None`` for leaf operators)."""
        if self.rows_in <= 0:
            return None
        return self.rows_out / self.rows_in

    def time_for(self, target: str | None) -> float | None:
        """Observed charged seconds on ``target``, or ``None``."""
        if target is None:
            return None
        return self.times_s.get(target)


class RuntimeStats:
    """Thread-safe per-operator runtime statistics with EWMA smoothing."""

    def __init__(self, smoothing: float = 0.5, *,
                 min_actionable_rows: int = 512,
                 max_operators: int = 4096) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.smoothing = smoothing
        #: Observed cardinality below which feedback never steers decisions
        #: (plan shapes over a few hundred rows are noise, not signal).
        self.min_actionable_rows = min_actionable_rows
        #: Retention bound: a long-lived deployment serving ad-hoc programs
        #: must not accumulate observations forever, so the least-recently
        #: touched operator entries are evicted past this cap.
        self.max_operators = max(1, max_operators)
        self._lock = threading.Lock()
        self._operators: "OrderedDict[str, ObservedOperator]" = OrderedDict()
        self._evicted = 0
        self._recorded = 0

    # -- population (executor) --------------------------------------------------------

    def record(self, fingerprint: str, *, kind: str, target: str | None,
               time_s: float, rows_out: int, rows_in: int = 0) -> None:
        """Fold one operator execution into the store."""
        with self._lock:
            entry = self._operators.get(fingerprint)
            if entry is None:
                entry = ObservedOperator(fingerprint=fingerprint, kind=kind)
                self._operators[fingerprint] = entry
            alpha = self.smoothing
            entry.rows_out = _ewma(entry.rows_out if entry.samples else None,
                                   float(max(0, rows_out)), alpha)
            entry.rows_in = _ewma(entry.rows_in if entry.samples else None,
                                  float(max(0, rows_in)), alpha)
            if target is not None and time_s >= 0.0:
                entry.times_s[target] = _ewma(entry.times_s.get(target),
                                              float(time_s), alpha)
            entry.samples += 1
            self._recorded += 1
            self._operators.move_to_end(fingerprint)
            while len(self._operators) > self.max_operators:
                self._operators.popitem(last=False)
                self._evicted += 1

    # -- consumption (annotate / placement / cost model) -------------------------------

    def observed(self, fingerprint: str | None) -> ObservedOperator | None:
        """A snapshot of the observations for ``fingerprint``, or ``None``."""
        if fingerprint is None:
            return None
        with self._lock:
            entry = self._operators.get(fingerprint)
            if entry is None or entry.samples == 0:
                return None
            return replace(entry, times_s=dict(entry.times_s))

    def observed_rows(self, fingerprint: str | None) -> int | None:
        """Observed (smoothed) output cardinality, or ``None``."""
        entry = self.observed(fingerprint)
        if entry is None:
            return None
        return max(1, round(entry.rows_out))

    def actionable_rows(self, fingerprint: str | None) -> int | None:
        """Observed cardinality, suppressed below the actionable floor.

        Re-planning decisions (cardinality overrides, plan aging, placement
        host times) consult this instead of :meth:`observed_rows`: when the
        observed reality is tiny, any plan is cheap, and acting on the drift
        would only churn plans and destabilize otherwise-deterministic
        outputs.
        """
        rows = self.observed_rows(fingerprint)
        if rows is None or rows < self.min_actionable_rows:
            return None
        return rows

    def observed_time(self, fingerprint: str | None, target: str | None
                      ) -> float | None:
        """Observed charged seconds of ``fingerprint`` on ``target``."""
        entry = self.observed(fingerprint)
        if entry is None:
            return None
        return entry.time_for(target)

    # -- management --------------------------------------------------------------------

    def clear(self) -> None:
        """Forget every observation (tests and benchmarks)."""
        with self._lock:
            self._operators.clear()
            self._recorded = 0
            self._evicted = 0

    def stats(self) -> dict[str, int]:
        """Store counters for :meth:`PolystorePlusPlus.describe` and logs."""
        with self._lock:
            return {
                "operators": len(self._operators),
                "recorded": self._recorded,
                "evicted": self._evicted,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._operators)
