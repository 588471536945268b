"""Cost models for heterogeneous execution.

The middleware optimizer needs, for every operator, an estimate of execution
time on each candidate target (a CPU engine or an accelerator) plus the cost
of any data movement the placement implies (paper §IV-C: "minimizes the total
execution time of a program, while optimizing on number and size of data
movements and cost of operators' execution across data stores").

The per-engine constants are deliberately simple (seconds per row / per byte)
and can be recalibrated from measured :class:`OperationMetrics` — the
"exploitation of performance profiling of earlier executions" the paper
attributes to HyperMapper-style optimizers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.accelerators.kernels import WorkEstimate
from repro.accelerators.simulator import OffloadPlanner
from repro.ir.graph import IRGraph
from repro.ir.kinds import KINDS
from repro.ir.nodes import Operator
from repro.stores.base import OperationMetrics

if TYPE_CHECKING:  # runtime stats are duck-typed to keep the layering acyclic
    from repro.middleware.feedback import RuntimeStats

#: Cost per migrated byte on the default network, by strategy.
_MIGRATION_BYTE_COSTS: dict[str, float] = {
    "csv": 4.0e-8,
    "binary_pipe": 1.2e-8,
    "rdma": 0.9e-9,
    "accelerated": 0.5e-9,
}


@dataclass
class CostEstimate:
    """Estimated cost of a single operator placement."""

    op_id: str
    kind: str
    target: str
    time_s: float
    bytes_moved: int = 0
    #: ``"model"`` for the analytical estimate, ``"observed"`` when runtime
    #: feedback supplied a measured operator time.
    source: str = "model"


@dataclass
class CostModel:
    """Estimates operator, migration and plan costs."""

    #: Per-row processing cost (seconds) by operator kind on a CPU engine.
    row_costs: dict[str, float] = field(
        default_factory=lambda: {kind: row.row_cost for kind, row in KINDS.items()})
    migration_byte_costs: dict[str, float] = field(
        default_factory=lambda: dict(_MIGRATION_BYTE_COSTS))
    fixed_overhead_s: float = 5e-5

    # -- operator costs ----------------------------------------------------------------

    def operator_cost(self, node: Operator,
                      stats: "RuntimeStats | None" = None) -> CostEstimate:
        """Estimated cost of ``node`` on its bound CPU engine.

        With ``stats``, a measured charged time for the same operator
        fingerprint on the same target takes precedence over the analytical
        per-row constants (scaled linearly to the current row estimate).
        """
        observed = self._observed_cost(node, stats)
        if observed is not None:
            return observed
        rows = max(1, node.estimated_rows)
        per_row = self.row_costs[node.kind]
        if node.kind == "sort":
            import math

            time_s = self.fixed_overhead_s + per_row * rows * max(1.0, math.log2(rows))
        elif node.kind == "migrate":
            strategy = str(node.params.get("strategy", "binary_pipe"))
            time_s = self.migration_cost(node.estimated_bytes, strategy)
        else:
            time_s = self.fixed_overhead_s + per_row * rows
        return CostEstimate(node.op_id, node.kind, node.engine or "cpu", time_s,
                            node.estimated_bytes)

    @staticmethod
    def _observed_cost(node: Operator,
                       stats: "RuntimeStats | None") -> CostEstimate | None:
        if stats is None:
            return None
        observed = stats.observed(node.annotations.get("fingerprint"))
        if observed is None:
            return None
        target = node.accelerator or node.engine
        time_s = observed.time_for(target)
        if time_s is None or time_s <= 0.0:
            # A zero observation (clock granularity on a trivial input) must
            # not model the operator as free at any scale — fall back.
            return None
        basis = max(observed.rows_in, observed.rows_out, 1.0)
        scaled = time_s * (max(1, node.estimated_rows) / basis)
        return CostEstimate(node.op_id, node.kind, target or "cpu", scaled,
                            node.estimated_bytes, source="observed")

    def accelerated_cost(self, node: Operator, planner: OffloadPlanner
                         ) -> CostEstimate | None:
        """Estimated cost of ``node`` on its best accelerator, if any."""
        operator = KINDS[node.kind].kernel
        if operator is None:
            return None
        # Build the same work estimate placement uses, but without graph context
        # when the node is detached; estimated annotations carry what we need.
        work = WorkEstimate(rows=max(1, node.estimated_rows),
                            row_bytes=max(8, node.estimated_bytes
                                          // max(1, node.estimated_rows)))
        best = planner.registry.best(operator, work)
        if best is None:
            return None
        accelerator, _, time_s = best
        return CostEstimate(node.op_id, node.kind, accelerator.profile.name, time_s,
                            node.estimated_bytes)

    # -- migration and plan costs ----------------------------------------------------------

    def migration_cost(self, payload_bytes: int, strategy: str = "binary_pipe") -> float:
        """Estimated migration time for a payload under a strategy."""
        per_byte = self.migration_byte_costs.get(strategy,
                                                 self.migration_byte_costs["binary_pipe"])
        return self.fixed_overhead_s + per_byte * max(0, payload_bytes)

    def plan_cost(self, graph: IRGraph, *, planner: OffloadPlanner | None = None,
                  stats: "RuntimeStats | None" = None) -> float:
        """Total estimated time of a plan, honouring accelerator placements.

        Observed operator times (``stats``) take precedence over both the
        analytical CPU constants and the device models.
        """
        total = 0.0
        for node in graph.nodes():
            observed = self._observed_cost(node, stats)
            if observed is not None:
                total += observed.time_s
                continue
            if node.accelerator and planner is not None:
                accelerated = self.accelerated_cost(node, planner)
                if accelerated is not None:
                    total += accelerated.time_s
                    continue
            total += self.operator_cost(node).time_s
        return total

    def plan_bytes_moved(self, graph: IRGraph) -> int:
        """Total bytes crossing engine boundaries (the migrate operators)."""
        return sum(node.estimated_bytes for node in graph.nodes_of_kind("migrate"))

    # -- calibration --------------------------------------------------------------------------

    def calibrate(self, metrics: list[OperationMetrics], *,
                  smoothing: float = 0.5) -> int:
        """Update per-row costs from measured engine metrics.

        Each metric record with a non-zero row count contributes an observed
        seconds-per-row; the model blends it into the current constant with
        exponential smoothing.  Returns the number of kinds updated.
        """
        observed: dict[str, list[float]] = {}
        kind_by_operation = {
            "scan": "scan", "index_seek": "index_seek", "range_seek": "index_seek",
            "execute_sql": "scan", "window_aggregate": "window_aggregate",
            "range_scan": "ts_range", "pattern_match": "graph_match",
            "shortest_path": "shortest_path", "tfidf_search": "text_search",
            "train_classifier": "train", "predict": "predict", "kmeans": "kmeans",
            "get": "kv_get",
        }
        for record in metrics:
            kind = kind_by_operation.get(record.operation)
            if kind is None:
                continue
            rows = max(record.rows_in, record.rows_out)
            if rows <= 0 or record.wall_time_s <= 0:
                continue
            observed.setdefault(kind, []).append(record.wall_time_s / rows)
        for kind, samples in observed.items():
            sample = sum(samples) / len(samples)
            current = self.row_costs.get(kind, sample)
            self.row_costs[kind] = (1 - smoothing) * current + smoothing * sample
        return len(observed)
