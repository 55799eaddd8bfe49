"""Unit tests for the FractionalMatching container."""

import pytest

from repro.core.fractional import FractionalMatching
from repro.graph.graph import Graph


@pytest.fixture
def square_fm() -> FractionalMatching:
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    weights = {(0, 1): 0.5, (1, 2): 0.4, (2, 3): 0.5, (0, 3): 0.3}
    return FractionalMatching(graph=g, weights=weights, vertex_cover={0, 2})


class TestFractionalMatching:
    def test_weight(self, square_fm):
        assert square_fm.weight() == pytest.approx(1.7)

    def test_vertex_loads(self, square_fm):
        loads = square_fm.vertex_loads()
        assert loads[0] == pytest.approx(0.8)
        assert loads[1] == pytest.approx(0.9)
        assert loads[2] == pytest.approx(0.9)
        assert loads[3] == pytest.approx(0.8)

    def test_is_valid(self, square_fm):
        assert square_fm.is_valid()

    def test_invalid_when_overloaded(self):
        g = Graph(3, [(0, 1), (1, 2)])
        fm = FractionalMatching(graph=g, weights={(0, 1): 0.7, (1, 2): 0.7})
        assert not fm.is_valid()

    def test_invalid_on_non_edge(self):
        g = Graph(3, [(0, 1)])
        fm = FractionalMatching(graph=g, weights={(0, 2): 0.1})
        assert not fm.is_valid()

    def test_heavy_vertices(self, square_fm):
        assert square_fm.heavy_vertices(0.85) == {1, 2}
        assert square_fm.heavy_vertices(0.95) == set()
