"""Unit tests for the line-graph MIS → maximal matching reduction."""

import pytest

from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.graph.properties import is_maximal_matching
from tests.reference.line_graph import maximal_matching_via_line_graph


class TestLineGraphMatching:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_output_is_maximal_matching(self, seed):
        g = gnp_random_graph(80, 0.08, seed=seed)
        result = maximal_matching_via_line_graph(g, seed=seed)
        assert is_maximal_matching(g, result.matching)

    def test_path(self):
        result = maximal_matching_via_line_graph(path_graph(9), seed=1)
        assert is_maximal_matching(path_graph(9), result.matching)

    def test_cycle(self):
        result = maximal_matching_via_line_graph(cycle_graph(10), seed=2)
        assert is_maximal_matching(cycle_graph(10), result.matching)

    def test_star_yields_single_edge(self):
        result = maximal_matching_via_line_graph(star_graph(12), seed=3)
        assert len(result.matching) == 1

    def test_line_graph_stats_reported(self):
        g = complete_graph(8)
        result = maximal_matching_via_line_graph(g, seed=4)
        assert result.line_graph_vertices == g.num_edges
        assert result.line_graph_edges > 0

    def test_blowup_guard(self):
        g = star_graph(3000)  # line graph is K_3000: ~4.5M edges
        with pytest.raises(ValueError, match="line graph"):
            maximal_matching_via_line_graph(g, max_line_graph_edges=10_000)

    def test_agrees_with_direct_algorithm_on_maximality(self):
        """Cross-check: both the reduction and the direct pipeline must
        produce maximal matchings of the same graph."""
        from repro.core.integral import mpc_maximum_matching

        g = gnp_random_graph(60, 0.1, seed=5)
        via_line = maximal_matching_via_line_graph(g, seed=5)
        direct = mpc_maximum_matching(g, seed=5)
        assert is_maximal_matching(g, via_line.matching)
        assert is_maximal_matching(g, direct.matching)
        # Maximal matchings are within 2x of each other.
        assert len(via_line.matching) <= 2 * len(direct.matching)
        assert len(direct.matching) <= 2 * len(via_line.matching)

    def test_empty_graph(self):
        result = maximal_matching_via_line_graph(Graph(5), seed=6)
        assert result.matching == set()
