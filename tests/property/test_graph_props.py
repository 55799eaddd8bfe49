"""Property-based tests for the graph substrate itself."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.graph import Graph, canonical_edge
from tests.property.strategies import graphs
from tests.reference.line_graph import line_graph

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestGraphProperties:
    @_SETTINGS
    @given(graph=graphs())
    def test_handshake_lemma(self, graph: Graph):
        assert sum(graph.degrees()) == 2 * graph.num_edges

    @_SETTINGS
    @given(graph=graphs())
    def test_edges_are_canonical_unique(self, graph: Graph):
        edges = list(graph.edges())
        assert len(edges) == len(set(edges)) == graph.num_edges
        assert all(u < v for u, v in edges)

    @_SETTINGS
    @given(graph=graphs())
    def test_copy_round_trip(self, graph: Graph):
        assert graph.copy() == graph

    @_SETTINGS
    @given(graph=graphs())
    def test_isolate_removes_exactly_degree(self, graph: Graph):
        if graph.num_vertices == 0:
            return
        v = max(graph.vertices(), key=graph.degree)
        degree = graph.degree(v)
        before = graph.num_edges
        working = graph.copy()
        working.isolate(v)
        assert working.num_edges == before - degree

    @_SETTINGS
    @given(graph=graphs())
    def test_line_graph_vertex_count(self, graph: Graph):
        lg, order = line_graph(graph)
        assert lg.num_vertices == graph.num_edges == len(order)

    @_SETTINGS
    @given(u=st.integers(0, 1000), v=st.integers(0, 1000))
    def test_canonical_edge_symmetric(self, u: int, v: int):
        if u != v:
            assert canonical_edge(u, v) == canonical_edge(v, u)
            assert canonical_edge(u, v)[0] < canonical_edge(u, v)[1]
