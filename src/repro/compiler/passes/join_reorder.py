"""Join-ordering pass.

Hash joins build on their right input; making the smaller relation the build
side keeps the hash table small and the probe stream large.  Using the
cardinality annotations, this pass swaps join inputs so the estimated-smaller
side sits on the right (the build side).
"""

from __future__ import annotations

from repro.ir.graph import IRGraph


def reorder_joins(graph: IRGraph) -> int:
    """Swap join inputs so the smaller side is the build side; returns swap count."""
    swaps = 0
    for node in graph.nodes_of_kind("join"):
        # Every join is a hash join.  The key stays so that plan fingerprints
        # recorded while a second join algorithm existed keep matching.
        node.params.setdefault("algorithm", "hash")
        if len(node.inputs) != 2:
            continue
        left = graph.node(node.inputs[0])
        right = graph.node(node.inputs[1])
        if not left.estimated_rows or not right.estimated_rows:
            continue
        if node.params.get("how", "inner") != "inner":
            # Outer joins are not symmetric; leave them alone.
            continue
        if right.estimated_rows > left.estimated_rows:
            node.inputs = [right.op_id, left.op_id]
            node.params["left_key"], node.params["right_key"] = (
                node.params.get("right_key"), node.params.get("left_key"),
            )
            swaps += 1
    return swaps
