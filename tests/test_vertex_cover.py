"""Unit tests for the vertex cover API (Theorem 1.2, cover half)."""

import numpy as np
import pytest

from repro.baselines.blossom import maximum_matching
from repro.baselines.exact import brute_force_minimum_vertex_cover
from repro.core.config import MatchingConfig
from repro.core.vertex_cover import cover_from_maximal_matching, mpc_vertex_cover
from repro.graph.generators import (
    complete_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.graph.properties import is_vertex_cover


class TestCoverValidity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cover_covers(self, seed):
        g = gnp_random_graph(200, 0.08, seed=seed)
        result = mpc_vertex_cover(g, seed=seed)
        assert is_vertex_cover(g, result.cover)

    def test_star_cover_small(self):
        g = star_graph(30)
        result = mpc_vertex_cover(g, seed=1)
        assert is_vertex_cover(g, result.cover)
        # Optimal is 1 (the center); (2+50eps) allows a small constant.
        assert result.size <= 4

    def test_path(self):
        g = path_graph(40)
        result = mpc_vertex_cover(g, seed=2)
        assert is_vertex_cover(g, result.cover)

    def test_edgeless_cover_empty(self):
        result = mpc_vertex_cover(Graph(5), seed=3)
        assert result.cover.size == 0


class TestCoverQuality:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_factor_vs_matching_lower_bound(self, seed):
        """|cover| <= (2+O(eps)) |M*| <= (2+O(eps)) * 2 * |VC*|; we assert
        the tighter matching-based bound the paper proves."""
        eps = 0.1
        g = gnp_random_graph(200, 0.08, seed=seed)
        result = mpc_vertex_cover(g, config=MatchingConfig(epsilon=eps), seed=seed)
        optimum_matching = len(maximum_matching(g))
        assert result.size <= (2 + 100 * eps) * optimum_matching + 1

    def test_against_exact_on_tiny_graphs(self):
        g = gnp_random_graph(24, 0.2, seed=4)
        exact = len(brute_force_minimum_vertex_cover(g))
        result = mpc_vertex_cover(g, seed=4)
        assert result.size <= 3 * exact + 2  # (2+50eps) with slack at n=24

    def test_complete_graph(self):
        g = complete_graph(16)
        result = mpc_vertex_cover(g, seed=5)
        assert is_vertex_cover(g, result.cover)
        assert result.size <= 16


class TestHelpers:
    def test_cover_from_maximal_matching(self):
        g = path_graph(5)
        cover = cover_from_maximal_matching(np.array([[2, 3], [0, 1]]))
        assert cover.tolist() == [0, 1, 2, 3]
        assert is_vertex_cover(g, cover)

    def test_fractional_weight_reported(self):
        g = gnp_random_graph(100, 0.1, seed=6)
        result = mpc_vertex_cover(g, seed=6)
        assert result.fractional_weight > 0
