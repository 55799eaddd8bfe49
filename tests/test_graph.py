"""Unit tests for the Graph data structure."""

import pytest

from repro.graph.graph import Graph, canonical_edge
from tests.reference.line_graph import line_graph


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_from_edges_sizes_to_max_endpoint(self):
        g = Graph.from_edges([(0, 3), (1, 2)])
        assert g.num_vertices == 4
        assert g.num_edges == 2

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_self_loop_rejected(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_out_of_range_edge_rejected(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.add_edge(0, 3)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1


class TestAccessors:
    def test_neighbors_and_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.neighbors(0) == frozenset({1, 2, 3})
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_max_degree(self):
        g = Graph(4, [(0, 1), (0, 2)])
        assert g.max_degree() == 2
        assert Graph(0).max_degree() == 0
        assert Graph(5).max_degree() == 0

    def test_has_edge_symmetric(self):
        g = Graph(3, [(0, 2)])
        assert g.has_edge(0, 2)
        assert g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_edges_canonical_and_sorted(self):
        g = Graph(4, [(3, 1), (2, 0)])
        assert g.edge_list() == [(0, 2), (1, 3)]

    def test_degrees_sequence(self):
        g = Graph(3, [(0, 1)])
        assert g.degrees() == [1, 1, 0]


class TestMutation:
    def test_remove_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        g.remove_edge(1, 0)
        assert g.num_edges == 1
        assert not g.has_edge(0, 1)

    def test_remove_missing_edge_raises(self):
        g = Graph(3)
        with pytest.raises(KeyError):
            g.remove_edge(0, 1)

    def test_isolate(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        g.isolate(0)
        assert g.degree(0) == 0
        assert g.num_edges == 1

    def test_remove_closed_neighborhood(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
        removed = g.remove_closed_neighborhood(0)
        assert removed == {0, 1, 2}
        assert g.num_edges == 0

    def test_copy_is_independent(self):
        g = Graph(3, [(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.num_edges == 1
        assert h.num_edges == 2
        assert g != h


class TestStructural:
    def test_line_graph_of_path(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        lg, order = line_graph(g)
        assert lg.num_vertices == 3
        assert lg.num_edges == 2  # line graph of P4 is P3
        assert order == [(0, 1), (1, 2), (2, 3)]

    def test_line_graph_of_star(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        lg, _ = line_graph(g)
        assert lg.num_edges == 3  # line graph of a 3-star is a triangle

    def test_canonical_edge(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)

    def test_equality(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph(1))
