"""The IR graph: a DAG of operators with data-flow edges.

The graph is the unit the compiler's passes rewrite, the optimizer costs,
and the executor schedules.  Edges are implicit in each operator's
``inputs`` list; the graph maintains the reverse (consumer) index and offers
the mutation helpers passes need (insert, remove, replace) while preserving
acyclicity.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator

from repro.exceptions import IRError
from repro.ir.nodes import Operator


class IRGraph:
    """A directed acyclic graph of :class:`Operator` nodes."""

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._nodes: dict[str, Operator] = {}
        self._outputs: list[str] = []
        #: Per-graph operator id counter: ids are deterministic for a given
        #: construction order and never shared across graphs (no global
        #: state, so concurrent sessions cannot race on it).
        self._next_id = 0

    # -- construction -------------------------------------------------------------

    def add(self, operator: Operator) -> Operator:
        """Add a node, assigning it a graph-local id when it has none.

        The node's inputs must already be present.  Nodes arriving with an
        explicit id (copies from another graph) keep it; the counter skips
        past any numeric suffix so later additions can never collide.
        """
        if not operator.op_id:
            self._next_id += 1
            operator.op_id = f"{operator.kind}_{self._next_id}"
        else:
            suffix = operator.op_id.rsplit("_", 1)[-1]
            if suffix.isdigit():
                self._next_id = max(self._next_id, int(suffix))
        if operator.op_id in self._nodes:
            raise IRError(f"duplicate operator id {operator.op_id!r}")
        for input_id in operator.inputs:
            if input_id not in self._nodes:
                raise IRError(
                    f"operator {operator.op_id!r} references unknown input {input_id!r}"
                )
        self._nodes[operator.op_id] = operator
        return operator

    def mark_output(self, op_id: str) -> None:
        """Mark a node as a program output (kept alive by DCE)."""
        if op_id not in self._nodes:
            raise IRError(f"unknown operator {op_id!r}")
        if op_id not in self._outputs:
            self._outputs.append(op_id)

    @property
    def outputs(self) -> list[str]:
        """Ids of output nodes."""
        return list(self._outputs)

    def replace_output(self, old: str, new: str) -> None:
        """Replace an output marker (used by passes that rewrite output nodes)."""
        if new not in self._nodes:
            raise IRError(f"unknown operator {new!r}")
        self._outputs = [new if op_id == old else op_id for op_id in self._outputs]

    # -- access -------------------------------------------------------------------------

    def node(self, op_id: str) -> Operator:
        """The node with the given id."""
        try:
            return self._nodes[op_id]
        except KeyError as exc:
            raise IRError(f"unknown operator {op_id!r}") from exc

    def __contains__(self, op_id: object) -> bool:
        return op_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[Operator]:
        """All nodes in insertion order."""
        yield from self._nodes.values()

    def nodes_of_kind(self, kind: str) -> list[Operator]:
        """All nodes with the given kind."""
        return [node for node in self._nodes.values() if node.kind == kind]

    def consumers(self, op_id: str) -> list[Operator]:
        """Nodes that read the output of ``op_id``."""
        return [node for node in self._nodes.values() if op_id in node.inputs]

    def producers(self, op_id: str) -> list[Operator]:
        """Nodes whose output ``op_id`` reads."""
        return [self.node(input_id) for input_id in self.node(op_id).inputs]

    # -- ordering -----------------------------------------------------------------------

    def topological_order(self) -> list[Operator]:
        """Nodes in a valid execution order; raises :class:`IRError` on cycles."""
        in_degree = {op_id: len(node.inputs) for op_id, node in self._nodes.items()}
        consumers: dict[str, list[str]] = {op_id: [] for op_id in self._nodes}
        for node in self._nodes.values():
            for input_id in node.inputs:
                consumers[input_id].append(node.op_id)
        queue = deque(sorted(op_id for op_id, deg in in_degree.items() if deg == 0))
        order: list[Operator] = []
        while queue:
            current = queue.popleft()
            order.append(self._nodes[current])
            for consumer in consumers[current]:
                in_degree[consumer] -= 1
                if in_degree[consumer] == 0:
                    queue.append(consumer)
        if len(order) != len(self._nodes):
            raise IRError("IR graph contains a cycle")
        return order

    def stages(self) -> list[list[Operator]]:
        """Group nodes into parallel stages (nodes whose inputs are all in
        earlier stages), the structure the executor pipelines."""
        level: dict[str, int] = {}
        for node in self.topological_order():
            level[node.op_id] = 1 + max(
                (level[input_id] for input_id in node.inputs), default=-1
            )
        n_stages = max(level.values(), default=-1) + 1
        grouped: list[list[Operator]] = [[] for _ in range(n_stages)]
        for node in self.topological_order():
            grouped[level[node.op_id]].append(node)
        return grouped

    # -- mutation (used by optimization passes) ----------------------------------------------

    def remove(self, op_id: str) -> None:
        """Remove a node; consumers are rewired to its single input if it has one."""
        node = self.node(op_id)
        consumers = self.consumers(op_id)
        if consumers and len(node.inputs) != 1:
            raise IRError(
                f"cannot remove {op_id!r}: it has consumers and {len(node.inputs)} inputs"
            )
        replacement = node.inputs[0] if node.inputs else None
        for consumer in consumers:
            consumer.inputs = [
                replacement if input_id == op_id else input_id
                for input_id in consumer.inputs
                if not (input_id == op_id and replacement is None)
            ]
        self._outputs = [replacement if o == op_id and replacement else o
                         for o in self._outputs if not (o == op_id and replacement is None)]
        del self._nodes[op_id]

    def replace_input(self, op_id: str, old_input: str, new_input: str) -> None:
        """Rewire one input edge of a node."""
        node = self.node(op_id)
        if new_input not in self._nodes:
            raise IRError(f"unknown operator {new_input!r}")
        node.inputs = [new_input if i == old_input else i for i in node.inputs]

    def insert_between(self, producer_id: str, consumer_id: str,
                       operator: Operator) -> Operator:
        """Insert ``operator`` on the edge from ``producer_id`` to ``consumer_id``."""
        consumer = self.node(consumer_id)
        if producer_id not in consumer.inputs:
            raise IRError(f"{consumer_id!r} does not read {producer_id!r}")
        operator.inputs = [producer_id]
        self.add(operator)
        consumer.inputs = [operator.op_id if i == producer_id else i for i in consumer.inputs]
        return operator

    def prune(self, keep: Callable[[Operator], bool]) -> int:
        """Remove nodes failing ``keep`` that have no consumers; returns count removed."""
        removed = 0
        changed = True
        while changed:
            changed = False
            for node in list(self._nodes.values()):
                if keep(node) or node.op_id in self._outputs:
                    continue
                if not self.consumers(node.op_id):
                    del self._nodes[node.op_id]
                    removed += 1
                    changed = True
        return removed

    # -- rendering ----------------------------------------------------------------------------

    def render(self) -> str:
        """Multi-line text rendering in topological order."""
        lines = [f"IRGraph({self.name}, nodes={len(self)})"]
        for stage_index, stage in enumerate(self.stages()):
            lines.append(f"  stage {stage_index}:")
            for node in stage:
                marker = " *" if node.op_id in self._outputs else ""
                inputs = ", ".join(node.inputs) if node.inputs else "-"
                lines.append(f"    {node.describe()} <- [{inputs}]{marker}")
        return "\n".join(lines)

    def with_nodes(self, replacements: dict[str, Operator]) -> "IRGraph":
        """A graph sharing every operator with this one except those whose
        ids ``replacements`` maps, which take the mapped operators' places.

        The replacements must keep their originals' ids and inputs; nothing
        is copied, so neither graph may be rewritten afterwards.
        """
        twin = IRGraph(self.name)
        twin._nodes = {op_id: replacements.get(op_id, node)
                       for op_id, node in self._nodes.items()}
        twin._outputs = list(self._outputs)
        twin._next_id = self._next_id
        return twin

    def copy(self) -> "IRGraph":
        """A structural copy with copied nodes (safe for pass experimentation)."""
        duplicate = IRGraph(self.name)
        for node in self.topological_order():
            duplicate.add(node.copy())
        for output in self._outputs:
            duplicate.mark_output(output)
        return duplicate
