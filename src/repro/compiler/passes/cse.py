"""Common-subexpression elimination over the IR.

Heterogeneous programs frequently scan the same table in several fragments
(e.g. the Snorkel loop reloading training data every batch).  This pass
merges structurally identical subtrees so each is computed once and shared.
"""

from __future__ import annotations

from typing import Any

from repro.ir.graph import IRGraph
from repro.ir.nodes import Operator


def eliminate_common_subexpressions(graph: IRGraph) -> int:
    """Merge duplicate subtrees; returns the number of nodes removed."""
    removed = 0
    changed = True
    while changed:
        changed = False
        signatures: dict[tuple, str] = {}
        for node in graph.topological_order():
            signature = _signature(node)
            if signature is None:
                continue
            survivor = signatures.get(signature)
            if survivor is None:
                signatures[signature] = node.op_id
                continue
            if survivor == node.op_id:
                continue
            for consumer in graph.consumers(node.op_id):
                graph.replace_input(consumer.op_id, node.op_id, survivor)
            if node.op_id in graph.outputs:
                graph.replace_output(node.op_id, survivor)
            removed += graph.prune(lambda n, dead=node.op_id: n.op_id != dead)
            changed = True
            break
    return removed


def _signature(node: Operator) -> tuple | None:
    """A hashable structural signature, or ``None`` for nodes never merged."""
    if node.kind in ("train", "python_udf", "migrate"):
        # Training and UDFs may be stateful; migrations are placement artifacts.
        return None
    try:
        params = tuple(sorted((k, _freeze(v)) for k, v in node.params.items()))
    except TypeError:
        return None
    return (node.kind, node.engine, params, tuple(node.inputs))


def _freeze(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    return repr(value)
