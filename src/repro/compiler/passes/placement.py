"""Accelerator-placement pass.

Answers the paper's "what functions should be accelerated" question
(§IV-A-d) at compile time: for every accelerable operator the pass builds a
work estimate from the cardinality annotations, asks the
:class:`~repro.accelerators.simulator.OffloadPlanner` whether any attached
device beats the host, and records the chosen device in the operator's
``accelerator`` field.  The executor later charges such operators by that
device for the work their engine was observed to do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.accelerators.kernels import WorkEstimate
from repro.accelerators.simulator import OffloadPlanner, PlacementDecision
from repro.ir.graph import IRGraph
from repro.ir.kinds import KINDS
from repro.ir.nodes import Operator

if TYPE_CHECKING:  # runtime stats are duck-typed to keep the layering acyclic
    from repro.middleware.feedback import RuntimeStats


def place_accelerators(graph: IRGraph, planner: OffloadPlanner,
                       stats: "RuntimeStats | None" = None
                       ) -> list[PlacementDecision]:
    """Decide offload per accelerable operator; returns all decisions made.

    With ``stats``, the *measured* host time of earlier executions of the
    same operator (by structural fingerprint) replaces the roofline host
    model in the comparison — the analytical host model is calibrated for
    tight kernels and can be orders of magnitude more optimistic than the
    engine's real per-row cost, which systematically starves accelerators.
    """
    decisions: list[PlacementDecision] = []
    for node in graph.topological_order():
        operator = KINDS[node.kind].kernel
        if operator is None:
            continue
        work = _work_estimate(graph, node)
        decision = planner.decide(
            operator, work, observed_host_time_s=_observed_host_time(node, work, stats))
        decisions.append(decision)
        node.accelerator = decision.target if decision.offloaded else None
        node.annotations["placement_speedup"] = decision.speedup
        node.annotations["placement_host_time_s"] = decision.host_time_s
        node.annotations["placement_host_source"] = decision.host_time_source
    return decisions


def _observed_host_time(node: Operator, work: WorkEstimate,
                        stats: "RuntimeStats | None") -> float | None:
    """Measured host-engine time for ``node``, scaled to the current estimate."""
    if stats is None or node.engine is None:
        return None
    fingerprint = node.annotations.get("fingerprint")
    if stats.actionable_rows(fingerprint) is None:
        return None  # tiny observed reality: placement noise, not signal
    observed = stats.observed(fingerprint)
    if observed is None:
        return None
    time_s = observed.time_for(node.engine)
    if time_s is None or time_s <= 0.0:
        return None
    # Observations were taken at the observed cardinality; scale linearly to
    # the work estimate this decision is being made for.
    basis = max(observed.rows_in, observed.rows_out, 1.0)
    return time_s * (max(1, work.rows) / basis)


def _work_estimate(graph: IRGraph, node: Operator) -> WorkEstimate:
    input_rows = max((graph.node(i).estimated_rows for i in node.inputs), default=0)
    rows = max(node.estimated_rows, input_rows, 1)
    row_bytes = max(8, node.estimated_bytes // max(1, node.estimated_rows)) \
        if node.estimated_rows else 64
    if KINDS[node.kind].matrix:
        features = int(node.params.get("feature_count", 16))
        hidden = 32
        if node.kind == "train":
            epochs = int(node.params.get("epochs", 5))
            return WorkEstimate(rows=rows, matrix_dims=(rows * epochs, features, hidden))
        if node.kind == "predict":
            return WorkEstimate(rows=rows, matrix_dims=(rows, features, 1))
        return WorkEstimate(rows=rows, matrix_dims=(rows, features, features))
    selectivity = 1.0
    if node.kind == "filter" and node.inputs:
        parent_rows = max(1, graph.node(node.inputs[0]).estimated_rows)
        selectivity = min(1.0, node.estimated_rows / parent_rows)
    if node.kind == "project":
        selectivity = 0.5
    return WorkEstimate(rows=rows, row_bytes=row_bytes, selectivity=selectivity)
