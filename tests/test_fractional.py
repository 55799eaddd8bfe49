"""Unit tests for the FractionalMatching container."""

import numpy as np
import pytest

from repro.api.report import FRACTIONAL, canonical_solution
from repro.congested_clique.matching import congested_clique_fractional_matching
from repro.core.central import central_fractional_matching
from repro.core.fractional import FractionalMatching
from repro.core.matching_mpc import mpc_fractional_matching
from repro.graph.generators import gnp_random_graph, star_graph
from repro.graph.graph import Graph
from tests.reference import fractional as reference
from tests.reference.fractional import from_weights


@pytest.fixture
def square_fm() -> FractionalMatching:
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    weights = {(0, 1): 0.5, (0, 3): 0.3, (1, 2): 0.4, (2, 3): 0.5}
    return from_weights(g, weights, vertex_cover={0, 2})


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
        fm = from_weights(g, {(0, 1): 0.7, (1, 2): 0.7})
        assert not fm.is_valid()

    def test_invalid_on_non_edge(self):
        g = Graph(3, [(0, 1)])
        fm = from_weights(g, {(0, 2): 0.1})
        assert not fm.is_valid()

    def test_heavy_vertices(self, square_fm):
        assert square_fm.heavy_vertices(0.85).tolist() == [1, 2]
        assert square_fm.heavy_vertices(0.95).tolist() == []

    def test_zero_weight_edge_endpoints_are_present(self):
        """A listed edge of weight 0 puts its endpoints in the load map, so
        they reach a nonpositive minimum; unlisted vertices never do."""
        fm = from_weights(Graph(4, [(0, 1), (2, 3)]), {(0, 1): 0.0})
        assert fm.heavy_vertices(0.0).tolist() == [0, 1]
        assert fm.heavy_vertices(-1.0).tolist() == [0, 1]


# ---------------------------------------------------------------------------
# The arrays against the dict reference, on every fractional solver
# ---------------------------------------------------------------------------

_SOLVERS = {
    "mpc": lambda g, seed: mpc_fractional_matching(g, seed=seed),
    "central": lambda g, seed: central_fractional_matching(
        g, randomized_thresholds=True, seed=seed
    ),
    "congested_clique": lambda g, seed: congested_clique_fractional_matching(
        g, seed=seed
    ),
}

_GRAPHS = {
    "gnp": lambda: gnp_random_graph(150, 0.08, seed=21),
    # A large star's center overshoots inside one compressed phase: at
    # seed 5 the MPC solvers remove it at Line (i) and drop every edge.
    "star": lambda: star_graph(1000),
    "edgeless": lambda: Graph(6),
}


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
@pytest.mark.parametrize("family", sorted(_GRAPHS))
def test_arrays_match_dict_reference(family, solver):
    graph = _GRAPHS[family]()
    result = _SOLVERS[solver](graph, 5)
    fractional = result.matching
    weights = reference.weights_of(fractional)
    if family == "star" and solver != "central":
        assert result.heavy_removed.tolist() == [0] and not weights
    assert fractional.edges.dtype == np.int64
    assert fractional.edges.shape == (len(fractional.x), 2)
    assert fractional.x.dtype == np.float64

    # Loads: bit-equal to the dict loop, zero off the listed edges.
    loads = fractional.vertex_loads().tolist()
    expected = reference.vertex_loads(weights)
    assert len(loads) == graph.num_vertices
    assert all(loads[v] == expected.get(v, 0.0) for v in range(len(loads)))

    assert fractional.weight() == reference.fractional_matching_weight(weights)
    for minimum in (-1.0, 0.0, 0.5, 1.0 - 5.0 * 0.1, 1.0):
        heavy = fractional.heavy_vertices(minimum)
        assert heavy.tolist() == sorted(reference.heavy_vertices(weights, minimum))
    assert canonical_solution(FRACTIONAL, fractional) == reference.canonical_triples(
        weights
    )
