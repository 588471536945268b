"""Operator-fusion pass (an L1 optimization).

Polyglot systems such as Weld gain most of their speedup by fusing adjacent
operators so intermediate results are never materialized (paper §II-A).
Three fusions are implemented:

* adjacent filters become one filter with an AND-combined predicate,
* adjacent projections keep only the outermost column list,
* a projection directly above a scan is folded into the scan's column list
  (so the engine never materializes dropped columns),
* a group-aggregate directly above a scan is folded into the scan's page
  walk (:func:`fold_aggregates_into_scans`; so the engine never materializes
  the rows it aggregates).
"""

from __future__ import annotations

from repro.ir.graph import IRGraph
from repro.ir.nodes import FOLDED_INTO_SCAN, SCAN_AGGREGATE, Operator
from repro.stores.relational.expressions import Expression, and_
from repro.stores.relational.operators import AggregateSpec


def fuse_operators(graph: IRGraph) -> int:
    """Apply all fusions until fixpoint; returns the number of fusions."""
    total = 0
    changed = True
    while changed:
        changed = False
        for fuse in (_fuse_adjacent_filters, _fuse_adjacent_projects, _fuse_project_into_scan):
            count = fuse(graph)
            if count:
                total += count
                changed = True
    return total


def _fuse_adjacent_filters(graph: IRGraph) -> int:
    fused = 0
    for node in list(graph.nodes()):
        if node.kind != "filter" or not node.inputs or node.op_id not in graph:
            continue
        child_id = node.inputs[0]
        if child_id not in graph:
            continue
        child = graph.node(child_id)
        if child.kind != "filter":
            continue
        if len(graph.consumers(child.op_id)) != 1:
            continue
        upper = node.params.get("predicate")
        lower = child.params.get("predicate")
        if not isinstance(upper, Expression) or not isinstance(lower, Expression):
            continue
        node.params["predicate"] = and_(lower, upper)
        node.inputs = list(child.inputs)
        graph.prune(lambda n, dead=child.op_id: n.op_id != dead)
        fused += 1
    return fused


def _fuse_adjacent_projects(graph: IRGraph) -> int:
    fused = 0
    for node in list(graph.nodes()):
        if node.kind != "project" or not node.inputs or node.op_id not in graph:
            continue
        child_id = node.inputs[0]
        if child_id not in graph:
            continue
        child = graph.node(child_id)
        if child.kind != "project":
            continue
        if len(graph.consumers(child.op_id)) != 1:
            continue
        node.inputs = list(child.inputs)
        graph.prune(lambda n, dead=child.op_id: n.op_id != dead)
        fused += 1
    return fused


def _fuse_project_into_scan(graph: IRGraph) -> int:
    fused = 0
    for node in list(graph.nodes()):
        if node.kind != "project" or not node.inputs or node.op_id not in graph:
            continue
        child_id = node.inputs[0]
        if child_id not in graph:
            continue
        child = graph.node(child_id)
        if child.kind != "scan":
            continue
        if len(graph.consumers(child.op_id)) != 1:
            continue
        columns = node.params.get("columns")
        if not columns:
            continue
        child.params["columns"] = list(columns)
        # The projection node is now redundant: rewire its consumers to the scan.
        for consumer in graph.consumers(node.op_id):
            graph.replace_input(consumer.op_id, node.op_id, child.op_id)
        if node.op_id in graph.outputs:
            if node.annotations.get("fragment"):
                # Keep the output resolvable under the projection's name.
                child.annotations["fragment"] = node.annotations["fragment"]
            graph.replace_output(node.op_id, child.op_id)
        graph.prune(lambda n, dead=node.op_id: n.op_id != dead)
        fused += 1
    return fused


def fold_aggregates_into_scans(graph: IRGraph) -> int:
    """Fold each group-aggregate into the relational scan only it reads.

    The scan's page walk folds the rows it selects with the aggregate's own specs
    straight into its result: one row per group, in first-seen order, with
    the unfused plan's schema.  The aggregate hands that table on.

    Both nodes stay and keep their parameters: the decision is the
    :data:`~repro.ir.nodes.SCAN_AGGREGATE` annotation on the scan and
    :data:`~repro.ir.nodes.FOLDED_INTO_SCAN` on the aggregate.  It is a
    function of the plan's structure, so plan fingerprints do not record it.
    The scan must be the aggregate's sole input on the same engine, read by
    nothing else, not a program output, and — if it projects — keep every
    column the aggregate reads.  A filter left between the two (pushdown
    off) joins the scan's predicate first.  Returns the aggregates folded.
    """
    fused = 0
    for node in list(graph.nodes()):
        if node.kind != "aggregate" or len(node.inputs) != 1:
            continue
        group_by = list(node.params.get("group_by") or [])
        aggregates = list(node.params.get("aggregates") or [])
        if not all(isinstance(spec, AggregateSpec) for spec in aggregates):
            continue
        reads = {*group_by, *(spec.column for spec in aggregates if spec.column)}
        child = _sole_input(graph, node)
        if child is not None and child.kind == "filter" and len(child.inputs) == 1:
            predicate = child.params.get("predicate")
            scan = _sole_input(graph, child)
            if (isinstance(predicate, Expression) and scan is not None
                    and _scan_keeps(scan, reads | predicate.referenced_columns())):
                existing = scan.params.get("predicate")
                scan.params["predicate"] = (and_(existing, predicate)
                                            if isinstance(existing, Expression)
                                            else predicate)
                graph.remove(child.op_id)
                child = scan
        if child is None or not _scan_keeps(child, reads):
            continue
        child.annotations[SCAN_AGGREGATE] = (tuple(group_by), tuple(aggregates))
        node.annotations[FOLDED_INTO_SCAN] = True
        fused += 1
    return fused


def _sole_input(graph: IRGraph, node: Operator) -> Operator | None:
    """``node``'s input if only ``node`` reads it, on the same engine, and it
    is not a program output."""
    child = graph.node(node.inputs[0])
    if (child.engine != node.engine or child.op_id in graph.outputs
            or len(graph.consumers(child.op_id)) != 1):
        return None
    return child


def _scan_keeps(node: Operator, reads: set[str]) -> bool:
    """Whether ``node`` is a relational scan whose rows carry ``reads``."""
    columns = node.params.get("columns")
    return (node.kind == "scan" and not node.inputs
            and (not columns or reads <= set(columns)))
