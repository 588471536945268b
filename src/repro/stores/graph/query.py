"""Graph query operations: pattern matching, path finding and traversal.

These are the "match, subtree, path and join" operators the paper says
Cipher programs are lowered to (§III-A-1).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import QueryError
from repro.stores.graph.graph import Edge, Node, PropertyGraph


@dataclass(frozen=True)
class PatternStep:
    """One hop of a path pattern: an edge label and target-node constraints."""

    edge_label: str | None = None
    node_label: str | None = None
    node_filter: Callable[[Node], bool] | None = None


@dataclass
class Match:
    """One match of a pattern: the node chain and the edges between them."""

    nodes: list[Node] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)


def match_pattern(graph: PropertyGraph, start_label: str,
                  steps: list[PatternStep],
                  start_filter: Callable[[Node], bool] | None = None) -> list[Match]:
    """Find all node chains matching ``(start_label) -...-> step1 -> step2 ...``.

    The matcher expands outgoing edges only, step by step; each step may
    constrain the edge label, target-node label and target-node properties.
    """
    matches: list[Match] = []
    for start in graph.nodes(start_label):
        if start_filter is not None and not start_filter(start):
            continue
        matches.extend(_expand(graph, Match(nodes=[start]), steps))
    return matches


def _expand(graph: PropertyGraph, partial: Match, steps: list[PatternStep]) -> list[Match]:
    if not steps:
        return [partial]
    step, rest = steps[0], steps[1:]
    results: list[Match] = []
    current = partial.nodes[-1]
    for edge in graph.outgoing(current.node_id, step.edge_label):
        target = graph.node(edge.target)
        if step.node_label is not None and target.label != step.node_label:
            continue
        if step.node_filter is not None and not step.node_filter(target):
            continue
        extended = Match(nodes=partial.nodes + [target], edges=partial.edges + [edge])
        results.extend(_expand(graph, extended, rest))
    return results


def bfs_reachable(graph: PropertyGraph, start: str, *, max_depth: int | None = None,
                  edge_label: str | None = None) -> dict[str, int]:
    """Nodes reachable from ``start`` with their BFS depth."""
    if not graph.has_node(start):
        raise QueryError(f"start node {start!r} does not exist")
    depths = {start: 0}
    queue: deque[str] = deque([start])
    while queue:
        current = queue.popleft()
        depth = depths[current]
        if max_depth is not None and depth >= max_depth:
            continue
        for neighbor in graph.neighbors(current, edge_label):
            if neighbor not in depths:
                depths[neighbor] = depth + 1
                queue.append(neighbor)
    return depths


def shortest_path(graph: PropertyGraph, start: str, end: str, *,
                  weighted: bool = False, edge_label: str | None = None
                  ) -> tuple[list[str], float]:
    """Shortest path from ``start`` to ``end``.

    Unweighted paths use BFS (hop count); weighted paths use Dijkstra over
    the ``weight`` edge property.  Raises :class:`QueryError` when no path
    exists.
    """
    for endpoint in (start, end):
        if not graph.has_node(endpoint):
            raise QueryError(f"node {endpoint!r} does not exist")
    if start == end:
        return [start], 0.0

    # Dijkstra covers both cases; unweighted paths use unit edge costs.
    distances: dict[str, float] = {start: 0.0}
    previous: dict[str, str] = {}
    heap: list[tuple[float, str]] = [(0.0, start)]
    visited: set[str] = set()
    while heap:
        distance, current = heapq.heappop(heap)
        if current in visited:
            continue
        visited.add(current)
        if current == end:
            break
        for edge in graph.outgoing(current, edge_label):
            cost = edge.weight if weighted else 1.0
            candidate = distance + cost
            if candidate < distances.get(edge.target, float("inf")):
                distances[edge.target] = candidate
                previous[edge.target] = current
                heapq.heappush(heap, (candidate, edge.target))
    if end not in distances:
        raise QueryError(f"no path from {start!r} to {end!r}")
    path = [end]
    while path[-1] != start:
        path.append(previous[path[-1]])
    path.reverse()
    return path, distances[end]


def subtree(graph: PropertyGraph, root: str, *, edge_label: str | None = None,
            max_depth: int | None = None) -> list[str]:
    """All node ids in the subtree (DAG fan-out) rooted at ``root``."""
    return sorted(bfs_reachable(graph, root, max_depth=max_depth, edge_label=edge_label))


def neighborhood_aggregate(graph: PropertyGraph, node_id: str, property_name: str,
                           *, edge_label: str | None = None,
                           aggregation: str = "mean") -> float | None:
    """Aggregate a numeric property over a node's out-neighbours."""
    values = []
    for neighbor_id in graph.neighbors(node_id, edge_label):
        value = graph.node(neighbor_id).properties.get(property_name)
        if value is not None:
            values.append(float(value))
    if not values:
        return None
    if aggregation == "mean":
        return sum(values) / len(values)
    if aggregation == "sum":
        return float(sum(values))
    if aggregation == "min":
        return min(values)
    if aggregation == "max":
        return max(values)
    if aggregation == "count":
        return float(len(values))
    raise QueryError(f"unknown aggregation {aggregation!r}")


def degree_centrality(graph: PropertyGraph, *, top_k: int | None = None
                      ) -> list[tuple[str, int]]:
    """Nodes ranked by total degree, optionally truncated to the top ``k``."""
    ranked = sorted(
        ((node.node_id, graph.degree(node.node_id)) for node in graph.nodes()),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:top_k] if top_k is not None else ranked
