"""Execution reports: where the time went.

The executor records, per operator, the *measured* Python time and the
*simulated* device/network time (offloads, migrations).  Two totals are
derived: the sequential total (every operator back to back) and the
pipelined total (stages overlap: each stage costs its slowest operator),
which is the execution model the paper's executor targets ("the whole
workload execution can be perceived as a pipeline of the stages' execution").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any


@dataclass
class TaskRecord:
    """Cost record for one executed operator."""

    op_id: str
    kind: str
    engine: str | None
    accelerator: str | None
    stage: int
    wall_time_s: float
    simulated_time_s: float
    rows_out: int = 0
    #: Total rows across the operator's inputs (0 for leaf reads); together
    #: with ``rows_out`` this is the observed selectivity the runtime
    #: feedback store learns from.
    rows_in: int = 0
    offloaded: bool = False
    #: Served from a prepared program's pinned scan snapshot (no real work).
    cached: bool = False
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def charged_time_s(self) -> float:
        """The time the scheduler charges this task (simulated when offloaded)."""
        return self.simulated_time_s

    def as_cached(self, stage: int, wall_time_s: float) -> "TaskRecord":
        """A copy of this record representing a snapshot replay at ``stage``.

        The charged (simulated) time is carried over so mode comparisons stay
        meaningful, while the measured wall time reflects the near-zero cost
        of serving the pinned result.
        """
        return dataclasses.replace(
            self,
            stage=stage,
            wall_time_s=wall_time_s,
            cached=True,
            details=dict(self.details),
        )


@dataclass
class ExecutionReport:
    """Aggregate report for one program execution."""

    program: str
    mode: str
    records: list[TaskRecord] = field(default_factory=list)
    migration_time_s: float = 0.0
    migration_bytes: int = 0
    #: Measured wall time of the whole run.
    elapsed_wall_s: float = 0.0
    #: Whether this run executed a plan that was re-compiled because observed
    #: cardinalities drifted past the estimates baked into the cached plan.
    reoptimized: bool = False

    def add(self, record: TaskRecord) -> None:
        """Append one task record."""
        self.records.append(record)

    # -- totals -------------------------------------------------------------------------

    @property
    def total_time_s(self) -> float:
        """Sequential execution time (sum over all operators)."""
        return sum(r.charged_time_s for r in self.records)

    @property
    def pipelined_time_s(self) -> float:
        """Pipelined execution time: per stage, the slowest operator binds."""
        stage_times: dict[int, float] = {}
        for record in self.records:
            stage_times[record.stage] = max(stage_times.get(record.stage, 0.0),
                                            record.charged_time_s)
        return sum(stage_times.values())

    @property
    def wall_time_s(self) -> float:
        """Measured Python time (excludes simulated device/network charges)."""
        return sum(r.wall_time_s for r in self.records)

    @property
    def offloaded_tasks(self) -> int:
        """Number of operators executed on an accelerator."""
        return sum(1 for r in self.records if r.offloaded)

    @property
    def cached_tasks(self) -> int:
        """Number of operators served from a pinned scan snapshot."""
        return sum(1 for r in self.records if r.cached)

    @property
    def observed_concurrency(self) -> float:
        """Ratio of summed per-operator wall time to elapsed wall time.

        Every operator runs on the calling thread, so this reads 1.0; values
        above it would mean operators overlapped.  It is the measured
        counterpart of the charged :attr:`pipelined_time_s` model.
        """
        if self.elapsed_wall_s <= 0.0:
            return 1.0
        return max(1.0, self.wall_time_s / self.elapsed_wall_s)

    def time_by_kind(self) -> dict[str, float]:
        """Charged time per operator kind (for breakdown plots)."""
        breakdown: dict[str, float] = {}
        for record in self.records:
            breakdown[record.kind] = breakdown.get(record.kind, 0.0) + record.charged_time_s
        return breakdown

    def time_by_engine(self) -> dict[str, float]:
        """Charged time per engine/accelerator target."""
        breakdown: dict[str, float] = {}
        for record in self.records:
            target = record.accelerator or record.engine or "middleware"
            breakdown[target] = breakdown.get(target, 0.0) + record.charged_time_s
        return breakdown

    def summary(self) -> dict[str, Any]:
        """Compact dictionary for logs, benchmarks and EXPERIMENTS.md."""
        return {
            "program": self.program,
            "mode": self.mode,
            "operators": len(self.records),
            "offloaded": self.offloaded_tasks,
            "cached": self.cached_tasks,
            "reoptimized": self.reoptimized,
            "total_time_s": self.total_time_s,
            "pipelined_time_s": self.pipelined_time_s,
            "wall_time_s": self.wall_time_s,
            "elapsed_wall_s": self.elapsed_wall_s,
            "observed_concurrency": self.observed_concurrency,
            "migration_time_s": self.migration_time_s,
            "migration_bytes": self.migration_bytes,
        }
