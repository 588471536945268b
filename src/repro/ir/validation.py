"""IR validation: structural checks run after frontend lowering and after
each optimization pass."""

from __future__ import annotations

from repro.exceptions import IRError
from repro.ir.graph import IRGraph
from repro.ir.kinds import KINDS
from repro.ir.nodes import Operator


def validate_graph(graph: IRGraph) -> list[str]:
    """Validate an IR graph, returning a list of problems (empty when valid)."""
    problems: list[str] = []
    try:
        order = graph.topological_order()
    except IRError as exc:
        return [str(exc)]
    for node in order:
        problems.extend(validate_operator(node))
    if not graph.outputs:
        problems.append("graph has no output nodes")
    for output in graph.outputs:
        if output not in graph:
            problems.append(f"output {output!r} is not a node")
    return problems


def validate_operator(node: Operator) -> list[str]:
    """Validate one operator's kind, parameters and input arity."""
    problems: list[str] = []
    row = KINDS.get(node.kind)
    if row is None:
        problems.append(f"{node.op_id}: unknown kind {node.kind!r}")
        return problems
    for param in row.required:
        if param not in node.params:
            problems.append(f"{node.op_id}: {node.kind} is missing parameter {param!r}")
    if row.inputs is not None and len(node.inputs) != row.inputs:
        problems.append(
            f"{node.op_id}: {node.kind} expects {row.inputs} inputs, has {len(node.inputs)}"
        )
    return problems


def assert_valid(graph: IRGraph) -> None:
    """Raise :class:`IRError` when the graph is invalid."""
    problems = validate_graph(graph)
    if problems:
        raise IRError("invalid IR graph:\n  " + "\n  ".join(problems))
