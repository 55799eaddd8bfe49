"""Unit tests for WeightedGraph."""

import pytest

from repro.graph.graph import Graph
from repro.graph.weighted import WeightedGraph


class TestWeightedGraph:
    def test_construction_and_weights(self):
        wg = WeightedGraph(4, [(0, 1, 2.5), (1, 2, 1.0)])
        assert wg.num_vertices == 4
        assert wg.num_edges == 2
        assert wg.weight(1, 0) == 2.5  # order-insensitive

    def test_nonpositive_weight_rejected(self):
        wg = WeightedGraph(3)
        with pytest.raises(ValueError):
            wg.add_edge(0, 1, 0.0)
        with pytest.raises(ValueError):
            wg.add_edge(0, 1, -1.0)

    def test_min_max_weight(self):
        wg = WeightedGraph(4, [(0, 1, 3.0), (1, 2, 7.0)])
        assert wg.max_weight() == 7.0
        assert wg.min_weight() == 3.0
        assert WeightedGraph(2).max_weight() == 0.0

    def test_matching_weight(self):
        wg = WeightedGraph(4, [(0, 1, 3.0), (2, 3, 4.0), (1, 2, 10.0)])
        assert wg.matching_weight([(0, 1), (2, 3)]) == pytest.approx(7.0)

    def test_structure_shared(self):
        wg = WeightedGraph(3, [(0, 1, 1.0)])
        assert wg.structure.has_edge(0, 1)

    def test_threshold_subgraph(self):
        wg = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 5.0), (2, 3, 10.0)])
        heavy = wg.subgraph_with_weight_at_least(5.0)
        assert heavy.num_edges == 2
        assert heavy.min_weight() == 5.0

    def test_edges_iteration(self):
        wg = WeightedGraph(3, [(2, 0, 1.5)])
        assert list(wg.edges()) == [(0, 2, 1.5)]

    def test_unit_weights_shares_the_structure(self):
        graph = Graph(4, [(2, 3), (0, 1), (1, 2)])
        wg = WeightedGraph.unit_weights(graph)
        assert wg.structure is graph
        assert list(wg.edges()) == [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
        assert wg.num_edges == 3 and wg.max_weight() == wg.min_weight() == 1.0
        wg.add_edge(0, 3, 2.0)
        assert graph.has_edge(0, 3) and wg.weight(3, 0) == 2.0
