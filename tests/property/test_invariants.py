"""Property-based tests (hypothesis) for the core invariants.

Random graphs of random shapes, random seeds — every algorithm must hold
its defining invariant on all of them.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.blossom import maximum_matching_size
from repro.baselines.filtering import filtering_maximal_matching
from repro.baselines.luby import luby_mis
from repro.core.central import central_fractional_matching
from repro.core.greedy_mis import randomized_greedy_mis
from repro.core.integral import mpc_maximum_matching
from repro.core.matching_mpc import mpc_fractional_matching
from repro.core.mis_mpc import mis_mpc
from repro.core.rounding import round_fractional_matching
from repro.graph.graph import Graph
from repro.graph.properties import (
    is_matching,
    is_maximal_independent_set,
    is_maximal_matching,
    is_vertex_cover,
)
from tests.property.strategies import graphs

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_graphs(max_vertices: int = 48):
    """A random G(n, m) graph with arbitrary density."""
    return graphs(max_vertices=max_vertices)


class TestMISInvariants:
    @_SETTINGS
    @given(graph=random_graphs(), seed=st.integers(0, 1000))
    def test_greedy_mis_maximal(self, graph: Graph, seed: int):
        assert is_maximal_independent_set(
            graph, randomized_greedy_mis(graph, seed=seed)
        )

    @_SETTINGS
    @given(graph=random_graphs(), seed=st.integers(0, 1000))
    def test_mpc_mis_maximal(self, graph: Graph, seed: int):
        assert is_maximal_independent_set(graph, mis_mpc(graph, seed=seed).mis)

    @_SETTINGS
    @given(graph=random_graphs(), seed=st.integers(0, 1000))
    def test_luby_maximal(self, graph: Graph, seed: int):
        assert is_maximal_independent_set(graph, luby_mis(graph, seed=seed).mis)


class TestMatchingInvariants:
    @_SETTINGS
    @given(graph=random_graphs(), seed=st.integers(0, 1000))
    def test_fractional_valid_and_cover_covers(self, graph: Graph, seed: int):
        result = mpc_fractional_matching(graph, seed=seed)
        assert result.matching.is_valid()
        assert is_vertex_cover(graph, result.vertex_cover)

    @_SETTINGS
    @given(graph=random_graphs(), seed=st.integers(0, 1000))
    def test_central_valid(self, graph: Graph, seed: int):
        result = central_fractional_matching(
            graph, epsilon=0.1, randomized_thresholds=True, seed=seed
        )
        assert result.matching.is_valid()
        assert is_vertex_cover(graph, result.vertex_cover)

    @_SETTINGS
    @given(graph=random_graphs(max_vertices=36), seed=st.integers(0, 1000))
    def test_integral_matching_valid_and_half_opt(self, graph: Graph, seed: int):
        result = mpc_maximum_matching(graph, seed=seed)
        assert is_matching(graph, result.matching)
        assert is_maximal_matching(graph, result.matching)
        assert 2 * len(result.matching) >= maximum_matching_size(graph)

    @_SETTINGS
    @given(graph=random_graphs(), seed=st.integers(0, 1000))
    def test_rounding_always_matching(self, graph: Graph, seed: int):
        fractional = mpc_fractional_matching(graph, seed=seed)
        rounded = round_fractional_matching(
            fractional.matching, fractional.rounding_candidates(0.1), seed=seed
        )
        assert is_matching(graph, rounded.matching)
        assert rounded.proposals == len(rounded.matching) + rounded.collisions

    @_SETTINGS
    @given(graph=random_graphs(), seed=st.integers(0, 1000))
    def test_filtering_maximal(self, graph: Graph, seed: int):
        result = filtering_maximal_matching(
            graph, words_per_machine=8 * max(8, graph.num_vertices), seed=seed
        )
        assert is_maximal_matching(graph, result.matching)
