"""The graph data-processing engine.

Wraps :class:`~repro.stores.graph.graph.PropertyGraph` with the engine
interface: pattern matching, shortest paths, neighbourhood expansion and
subtree extraction.  The MIMIC workload stores patient ward transfers here;
the recommendation workload stores the customer/product interaction graph
here.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.stores.base import DataModel, Engine
from repro.stores.graph.graph import Edge, Node, PropertyGraph
from repro.stores.graph.query import (
    Match,
    PatternStep,
    bfs_reachable,
    degree_centrality,
    match_pattern,
    neighborhood_aggregate,
    shortest_path,
    subtree,
)


class GraphEngine(Engine):
    """A property-graph store with pattern and path queries."""

    data_model = DataModel.GRAPH

    def __init__(self, name: str = "graph") -> None:
        super().__init__(name)
        self.graph = PropertyGraph()

    # -- writes -----------------------------------------------------------------

    def add_node(self, node_id: str, label: str,
                 properties: dict[str, Any] | None = None) -> Node:
        """Add one node."""
        node = self.graph.add_node(node_id, label, properties)
        self.mark_data_changed()
        return node

    def add_edge(self, source: str, target: str, label: str,
                 properties: dict[str, Any] | None = None) -> Edge:
        """Add one directed edge."""
        edge = self.graph.add_edge(source, target, label, properties)
        self.mark_data_changed()
        return edge

    def load_nodes(self, nodes: list[dict[str, Any]], *, label_key: str = "label",
                   id_key: str = "node_id") -> int:
        """Bulk-load nodes from dictionaries; returns the count loaded."""
        for record in nodes:
            properties = {k: v for k, v in record.items() if k not in (label_key, id_key)}
            self.graph.add_node(str(record[id_key]), str(record[label_key]), properties)
        if nodes:
            self.mark_data_changed()
        return len(nodes)

    def load_edges(self, edges: list[dict[str, Any]]) -> int:
        """Bulk-load edges from ``{"source", "target", "label", ...}`` dictionaries."""
        for record in edges:
            properties = record.get("properties") or {
                k: v for k, v in record.items()
                if k not in ("source", "target", "label", "properties")
            }
            self.graph.add_edge(str(record["source"]), str(record["target"]),
                                str(record.get("label", "related")), properties)
        if edges:
            self.mark_data_changed()
        return len(edges)

    # -- queries ----------------------------------------------------------------------

    def match(self, start_label: str, steps: list[PatternStep],
              start_filter: Callable[[Node], bool] | None = None) -> list[Match]:
        """Pattern matching starting from nodes with ``start_label``."""
        return match_pattern(self.graph, start_label, steps, start_filter)

    def shortest_path(self, start: str, end: str, *, weighted: bool = False,
                      edge_label: str | None = None) -> tuple[list[str], float]:
        """Shortest path between two nodes."""
        return shortest_path(self.graph, start, end, weighted=weighted,
                             edge_label=edge_label)

    def reachable(self, start: str, *, max_depth: int | None = None,
                  edge_label: str | None = None) -> dict[str, int]:
        """BFS reachability with depths."""
        return bfs_reachable(self.graph, start, max_depth=max_depth, edge_label=edge_label)

    def subtree(self, root: str, *, edge_label: str | None = None,
                max_depth: int | None = None) -> list[str]:
        """Node ids reachable from ``root``."""
        return subtree(self.graph, root, edge_label=edge_label, max_depth=max_depth)

    def neighborhood_aggregate(self, node_id: str, property_name: str, *,
                               edge_label: str | None = None,
                               aggregation: str = "mean") -> float | None:
        """Aggregate a property over a node's neighbours."""
        return neighborhood_aggregate(self.graph, node_id, property_name,
                                      edge_label=edge_label, aggregation=aggregation)

    def central_nodes(self, top_k: int = 10) -> list[tuple[str, int]]:
        """The ``top_k`` highest-degree nodes."""
        return degree_centrality(self.graph, top_k=top_k)

    def node_properties(self, label: str) -> list[dict[str, Any]]:
        """All nodes of a label as flat property dictionaries (for migration)."""
        return [
            {"node_id": node.node_id, "label": node.label, **node.properties}
            for node in self.graph.nodes(label)
        ]

    def statistics(self) -> dict[str, Any]:
        """Engine statistics for the catalog."""
        return {
            "nodes": self.graph.num_nodes,
            "edges": self.graph.num_edges,
            "labels": self.graph.labels(),
        }
