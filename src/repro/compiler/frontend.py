"""Compiler frontend: lower a program's dataflow trees to the IR.

A :class:`~repro.eide.dataflow.DataflowProgram`'s trees are value-semantics
IR operators (``.sql()`` text was parsed into them when the program was
built), so lowering is a structural walk: shared subtrees (datasets feeding
several consumers) lower once.

After lowering, :func:`insert_migrations` adds explicit ``migrate``
operators on every cross-engine data-flow edge — the data-movement operators
the paper's Data Migrator executes and Polystore++ accelerates (§III-A-3).
"""

from __future__ import annotations

from repro.catalog import Catalog
from repro.eide.dataflow import (
    DataflowNode,
    DataflowProgram,
    resolve_node_engine,
)
from repro.exceptions import CompilationError
from repro.ir.graph import IRGraph
from repro.ir.nodes import Operator


class Frontend:
    """Lowers program dataflow trees into one IR graph."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def lower(self, program: DataflowProgram) -> IRGraph:
        """Lower every output tree, wire shared subtrees, insert migrations."""
        graph = IRGraph(program.name)
        labels = _effective_labels(program)
        lowered: dict[int, str] = {}
        for name, root in program.output_items():
            graph.mark_output(self._lower_node(graph, root, labels, lowered))
        insert_migrations(graph)
        return graph

    def _lower_node(self, graph: IRGraph, node: DataflowNode,
                    labels: dict[int, str], lowered: dict[int, str]) -> str:
        if id(node) in lowered:
            return lowered[id(node)]
        inputs = [self._lower_node(graph, child, labels, lowered)
                  for child in node.inputs]
        # ``view_read`` is served by the middleware's view registry, not an
        # engine; it carries no engine binding at all.
        engine = None if node.kind == "view_read" else self._engine_name(node)
        operator = Operator(node.kind, dict(node.params), inputs, engine)
        operator.annotations["fragment"] = labels.get(id(node), "")
        graph.add(operator)
        lowered[id(node)] = operator.op_id
        return operator.op_id

    def _engine_name(self, node: DataflowNode) -> str:
        if node.engine is not None and not self.catalog.has_engine(node.engine):
            where = f" (fragment {node.label!r})" if node.label else ""
            raise CompilationError(
                f"operator {node.kind!r}{where} targets unknown engine "
                f"{node.engine!r}"
            )
        engine = resolve_node_engine(node, self.catalog)
        if engine is None:
            raise CompilationError(
                f"no registered engine to default operator kind {node.kind!r} "
                f"to; bind it to an engine explicitly"
            )
        return engine


def _effective_labels(flow: DataflowProgram) -> dict[int, str]:
    """Fragment labels per node: explicit labels flow down to unlabeled
    children, first label wins for shared nodes.  Computed here rather than
    written onto the trees, so one dataset object may appear in several
    programs — and each output *root* is forced to its program-level output
    name, which must win over any ``.named()`` label for the result to
    resolve under it."""
    labels: dict[int, str] = {}

    def visit(node: DataflowNode, inherited: str) -> None:
        if id(node) in labels:
            return
        label = node.label or inherited
        labels[id(node)] = label
        for child in node.inputs:
            visit(child, label)

    for name, root in flow.output_items():
        labels[id(root)] = name
        for child in root.inputs:
            visit(child, root.label or name)
    return labels


def insert_migrations(graph: IRGraph) -> int:
    """Insert a ``migrate`` operator on every cross-engine edge.

    Returns the number of migration operators added.  Edges into ``migrate``
    nodes themselves are left untouched.
    """
    added = 0
    for node in list(graph.topological_order()):
        if node.kind == "migrate":
            continue
        for input_id in list(node.inputs):
            producer = graph.node(input_id)
            if producer.kind == "migrate":
                continue
            if producer.engine is None or node.engine is None:
                continue
            if producer.engine == node.engine:
                continue
            migrate = Operator(
                "migrate",
                {"source_engine": producer.engine, "target_engine": node.engine},
                engine=node.engine,
            )
            migrate.annotations["fragment"] = node.annotations.get("fragment", "")
            graph.insert_between(input_id, node.op_id, migrate)
            added += 1
    return added
