"""Cardinality and size annotation of IR graphs.

The optimizer and the accelerator-placement pass need per-operator estimates
of output rows and bytes.  Estimation walks the graph in topological order:
scans read engine statistics from the catalog, filters apply predicate
selectivities, joins use the standard ``|L| * |R| / max(distinct)`` heuristic
(approximated with a fixed fan-out), and everything else propagates its
input's estimate.

When a :class:`~repro.middleware.feedback.RuntimeStats` store is supplied,
the walk additionally fingerprints every node and prefers the *observed*
output cardinality recorded by earlier executions of the same operator over
the analytical model — the feedback loop that lets re-compiled plans correct
misleading selectivity guesses and post-compile data growth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.catalog import Catalog
from repro.ir.graph import IRGraph
from repro.ir.kinds import KINDS
from repro.ir.nodes import FOLDED_INTO_SCAN, SCAN_AGGREGATE, Operator
from repro.stores.relational.expressions import Expression

if TYPE_CHECKING:  # imported lazily at runtime to keep the layering acyclic
    from repro.middleware.feedback import RuntimeStats

_DEFAULT_ROWS = 1_000
_DEFAULT_ROW_BYTES = 64
#: Fraction of the cross product an equi-join is assumed to retain.
_JOIN_SELECTIVITY = 0.001


def annotate_graph(graph: IRGraph, catalog: Catalog | None = None,
                   stats: "RuntimeStats | None" = None) -> None:
    """Fill ``estimated_rows`` and ``estimated_bytes`` for every node in place.

    With ``stats``, every node is fingerprinted (annotation ``fingerprint``)
    and observed cardinalities take precedence over the analytical model;
    the model's own estimate is kept in ``estimated_rows_model`` and the
    ``rows_source`` annotation records which one won.
    """
    # Lazy import: the feedback package lives in the middleware, which
    # transitively imports the compiler; a module-level import would cycle.
    from repro.middleware.feedback.fingerprint import fingerprint_graph

    fingerprints = fingerprint_graph(graph) if stats is not None else {}
    for node in graph.topological_order():
        rows = _estimate_rows(graph, node, catalog)
        observed = (stats.actionable_rows(fingerprints.get(node.op_id))
                    if stats is not None else None)
        if observed is not None:
            node.annotations["estimated_rows_model"] = rows
            node.annotations["rows_source"] = "observed"
            rows = observed
        elif stats is not None:
            node.annotations["rows_source"] = "model"
        node.estimated_rows = rows
        node.estimated_bytes = rows * _row_bytes(graph, node, catalog)


def _estimate_rows(graph: IRGraph, node: Operator, catalog: Catalog | None) -> int:
    inputs = [graph.node(i) for i in node.inputs]
    input_rows = [max(1, n.estimated_rows) for n in inputs]
    kind = node.kind

    if kind in ("scan", "index_seek"):
        rows = _scan_rows(node, catalog)
        # A predicate absorbed into the leaf read filters engine-side; the
        # estimate shrinks exactly as a separate filter node's would.  A seek
        # converted from a predicated scan keeps the seek equality inside
        # that predicate, so the selectivity already covers it — only a
        # hand-built (predicate-less) seek uses the flat 1/100 factor.
        predicate = node.params.get("predicate")
        if isinstance(predicate, Expression):
            rows = max(1, int(rows * predicate.estimated_selectivity()))
        elif kind == "index_seek":
            rows = max(1, rows // 100)
        aggregate = node.annotations.get(SCAN_AGGREGATE)
        # A scan that aggregates returns what the aggregate above it would.
        return rows if aggregate is None else _aggregate_rows(rows, aggregate[0])
    if kind == "filter":
        predicate = node.params.get("predicate")
        selectivity = predicate.estimated_selectivity() \
            if isinstance(predicate, Expression) else 0.5
        return max(1, int(input_rows[0] * selectivity))
    if kind == "join":
        left, right = (input_rows + [1, 1])[:2]
        return max(1, int(left * right * _JOIN_SELECTIVITY), min(left, right))
    if kind == "aggregate":
        if FOLDED_INTO_SCAN in node.annotations:
            return input_rows[0]  # its input is its result, estimated below
        return _aggregate_rows(input_rows[0], node.params.get("group_by"))
    if kind == "limit":
        return min(input_rows[0], int(node.params.get("n", input_rows[0])))
    if kind == "top_k":
        return min(input_rows[0], int(node.params.get("k", input_rows[0])))
    if kind == "kv_get":
        keys = node.params.get("keys")
        return len(keys) if keys else _DEFAULT_ROWS
    if kind == "shortest_path":
        return 1
    if kind == "text_search":
        return int(node.params.get("top_k", 10))
    if KINDS[kind].source:
        return _DEFAULT_ROWS  # every other engine read: no statistics to consult
    if kind == "train":
        return 1
    if kind == "union":
        return sum(input_rows) if input_rows else _DEFAULT_ROWS
    return input_rows[0] if input_rows else _DEFAULT_ROWS


def _aggregate_rows(input_rows: int, group_by: object) -> int:
    return max(1, input_rows // 10) if group_by else 1


def _scan_rows(node: Operator, catalog: Catalog | None) -> int:
    if catalog is None or node.engine is None:
        return _DEFAULT_ROWS
    table = node.params.get("table")
    if not table:
        return _DEFAULT_ROWS
    rows = catalog.table_rows(node.engine, str(table))
    return rows if rows > 0 else _DEFAULT_ROWS


def _row_bytes(graph: IRGraph, node: Operator, catalog: Catalog | None) -> int:
    if node.kind == "scan" and catalog is not None and node.engine is not None:
        table = node.params.get("table")
        if table:
            columns = catalog.table_columns(node.engine, str(table))
            if columns:
                return max(8, 16 * len(columns))
    if node.kind == "project":
        columns = node.params.get("columns") or []
        if columns:
            return max(8, 16 * len(columns))
    if node.inputs:
        producer = graph.node(node.inputs[0])
        if producer.estimated_rows:
            return max(8, producer.estimated_bytes // max(1, producer.estimated_rows))
    return _DEFAULT_ROW_BYTES


def total_estimated_bytes(graph: IRGraph) -> int:
    """Sum of estimated output bytes across the graph (a crude plan cost)."""
    return sum(node.estimated_bytes for node in graph.nodes())
