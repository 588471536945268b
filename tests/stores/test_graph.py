"""Tests for the property-graph engine."""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError, StorageError
from repro.stores.graph import GraphEngine, PatternStep


@pytest.fixture
def ward_graph() -> GraphEngine:
    engine = GraphEngine("wards")
    for ward in ("emergency", "icu", "surgery", "recovery", "general"):
        engine.add_node(ward, "ward", {"beds": 10})
    engine.add_node("p1", "patient", {"age": 70})
    engine.add_edge("emergency", "icu", "transfer", {"weight": 2.0})
    engine.add_edge("emergency", "general", "transfer", {"weight": 1.0})
    engine.add_edge("general", "recovery", "transfer", {"weight": 1.0})
    engine.add_edge("icu", "surgery", "transfer", {"weight": 1.0})
    engine.add_edge("surgery", "recovery", "transfer", {"weight": 1.0})
    engine.add_edge("p1", "emergency", "admitted_to")
    return engine


class TestGraphStructure:
    def test_duplicate_node_rejected(self, ward_graph: GraphEngine):
        with pytest.raises(StorageError):
            ward_graph.add_node("icu", "ward")

    def test_edge_requires_endpoints(self, ward_graph: GraphEngine):
        with pytest.raises(StorageError):
            ward_graph.add_edge("icu", "missing", "transfer")

    def test_labels_and_counts(self, ward_graph: GraphEngine):
        stats = ward_graph.statistics()
        assert stats["nodes"] == 6
        assert stats["edges"] == 6
        assert set(stats["labels"]) == {"ward", "patient"}

    def test_neighbors_and_degree(self, ward_graph: GraphEngine):
        graph = ward_graph.graph
        assert set(graph.neighbors("emergency", "transfer")) == {"icu", "general"}
        assert graph.degree("recovery") == 2

    def test_edges_and_incoming_filter_by_label(self, ward_graph: GraphEngine):
        graph = ward_graph.graph
        assert len(list(graph.edges())) == 6
        assert {(e.source, e.target) for e in graph.edges("admitted_to")} == \
            {("p1", "emergency")}
        assert {e.source for e in graph.incoming("recovery")} == {"general", "surgery"}
        assert graph.incoming("emergency", "transfer") == []
        assert [e.source for e in graph.incoming("emergency", "admitted_to")] == ["p1"]


class TestQueries:
    def test_shortest_path_unweighted(self, ward_graph: GraphEngine):
        path, cost = ward_graph.shortest_path("emergency", "recovery")
        assert cost == 2.0
        assert path == ["emergency", "general", "recovery"]

    def test_shortest_path_weighted_prefers_cheap_edges(self, ward_graph: GraphEngine):
        path, cost = ward_graph.shortest_path("emergency", "surgery", weighted=True)
        assert path == ["emergency", "icu", "surgery"]
        assert cost == 3.0

    def test_no_path_raises(self, ward_graph: GraphEngine):
        with pytest.raises(QueryError):
            ward_graph.shortest_path("recovery", "emergency")

    def test_reachable_with_depth_limit(self, ward_graph: GraphEngine):
        depths = ward_graph.reachable("emergency", max_depth=1)
        assert set(depths) == {"emergency", "icu", "general"}

    def test_subtree(self, ward_graph: GraphEngine):
        assert "recovery" in ward_graph.subtree("emergency")

    def test_pattern_match_two_hops(self, ward_graph: GraphEngine):
        matches = ward_graph.match("ward", [PatternStep(edge_label="transfer"),
                                            PatternStep(edge_label="transfer")])
        ends = {m.nodes[-1].node_id for m in matches}
        assert "recovery" in ends or "surgery" in ends
        assert all(len(m.edges) == 2 for m in matches)

    def test_pattern_match_with_filter(self, ward_graph: GraphEngine):
        matches = ward_graph.match(
            "patient", [PatternStep(edge_label="admitted_to", node_label="ward")])
        assert len(matches) == 1
        assert matches[0].nodes[-1].node_id == "emergency"

    def test_neighborhood_aggregate(self, ward_graph: GraphEngine):
        value = ward_graph.neighborhood_aggregate("emergency", "beds",
                                                  edge_label="transfer",
                                                  aggregation="sum")
        assert value == 20.0

    def test_neighborhood_aggregate_missing_property(self, ward_graph: GraphEngine):
        assert ward_graph.neighborhood_aggregate("emergency", "nonexistent") is None

    def test_central_nodes(self, ward_graph: GraphEngine):
        ranked = ward_graph.central_nodes(top_k=2)
        assert len(ranked) == 2
        assert ranked[0][1] >= ranked[1][1]

    def test_bulk_load(self):
        engine = GraphEngine()
        engine.load_nodes([{"node_id": "a", "label": "x", "v": 1},
                           {"node_id": "b", "label": "x", "v": 2}])
        engine.load_edges([{"source": "a", "target": "b", "label": "e", "weight": 3.0}])
        assert engine.graph.num_edges == 1
        assert engine.node_properties("x")[0]["v"] == 1
