"""Property-based tests for higher-level algorithmic laws.

These encode the *mathematical relationships* between the paper's objects
(LP duality sandwiches, reduction correctness, improvement monotonicity)
rather than per-algorithm invariants.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.blossom import maximum_matching_size
from repro.core.augmenting import improve_matching
from repro.core.central import central_fractional_matching
from repro.core.matching_mpc import mpc_fractional_matching
from repro.core.weighted_matching import mpc_weighted_matching, weight_classes
from repro.graph.graph import Graph
from repro.graph.properties import is_matching
from tests.property.strategies import weighted_graphs
from tests.property.strategies import graphs as any_graphs

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def graphs(max_vertices: int = 40):
    """Graphs with at least one edge (the laws below divide by optima)."""
    return any_graphs(max_vertices=max_vertices, min_vertices=2, min_edges=1)


class TestDualitySandwich:
    @_SETTINGS
    @given(graph=graphs(), seed=st.integers(0, 500))
    def test_weak_duality_mpc(self, graph: Graph, seed: int):
        """Fractional matching weight <= integral max matching's VC bound:
        weight <= |VC*| <= |cover|; and weight <= |M*| * 2 always."""
        result = mpc_fractional_matching(graph, seed=seed)
        assert result.weight <= len(result.vertex_cover) + 1e-6
        optimum = maximum_matching_size(graph)
        assert result.weight <= 2 * optimum + 1e-6

    @_SETTINGS
    @given(graph=graphs(), seed=st.integers(0, 500))
    def test_central_weight_within_lp_bounds(self, graph: Graph, seed: int):
        result = central_fractional_matching(graph, epsilon=0.1, seed=seed)
        optimum = maximum_matching_size(graph)
        # Lemma 4.1 lower bound and LP upper bound.
        assert result.weight >= optimum / 2.5 - 1e-9
        assert result.weight <= 2 * optimum + 1e-6


class TestAugmentingMonotonicity:
    @_SETTINGS
    @given(
        graph=graphs(),
        seed=st.integers(0, 500),
        path_length=st.sampled_from([1, 3, 5]),
    )
    def test_improvement_never_shrinks_and_stays_valid(
        self, graph: Graph, seed: int, path_length: int
    ):
        from repro.baselines.greedy import greedy_maximal_matching

        start = greedy_maximal_matching(graph, seed=seed)
        outcome = improve_matching(graph, start, path_length)
        assert is_matching(graph, outcome.matching)
        assert len(outcome.matching) >= len(start)

    @_SETTINGS
    @given(graph=graphs(max_vertices=24))
    def test_length_one_elimination_gives_maximal(self, graph: Graph):
        """Eliminating length-1 augmenting paths from scratch = maximality."""
        outcome = improve_matching(graph, set(), max_path_length=1)
        from repro.graph.properties import is_maximal_matching

        assert is_maximal_matching(graph, outcome.matching)


class TestWeightClassLaws:
    @_SETTINGS
    @given(wgraph=weighted_graphs(), eps=st.sampled_from([0.05, 0.1, 0.3]))
    def test_classes_partition_kept_edges(self, wgraph: WeightedGraph, eps):
        classes = weight_classes(wgraph, epsilon=eps)
        flattened = [e for cls in classes for e in cls]
        assert len(flattened) == len(set(flattened))  # no duplicates
        kept = set(flattened)
        w_max = wgraph.max_weight()
        floor = eps * w_max / max(1, wgraph.num_vertices)
        for u, v, w in wgraph.edges():
            assert ((u, v) in kept) == (w >= floor)

    @_SETTINGS
    @given(wgraph=weighted_graphs(), seed=st.integers(0, 200))
    def test_weighted_matching_weight_consistency(self, wgraph, seed):
        result = mpc_weighted_matching(wgraph, epsilon=0.1, seed=seed)
        assert is_matching(wgraph.structure, result.matching)
        assert abs(result.weight - wgraph.matching_weight(result.matching)) < 1e-9
        # Never worse than half the single heaviest edge.
        if wgraph.num_edges:
            assert result.weight >= wgraph.max_weight() / 2 - 1e-9
