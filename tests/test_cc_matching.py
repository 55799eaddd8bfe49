"""Unit tests for the CONGESTED-CLIQUE matching adaptation."""

import numpy as np
import pytest

from repro.congested_clique.matching import congested_clique_fractional_matching
from repro.core.config import MatchingConfig
from repro.core.matching_mpc import mpc_fractional_matching
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import Graph
from repro.graph.properties import is_vertex_cover


class TestCCMatching:
    def test_decisions_match_mpc_under_same_seed(self):
        g = gnp_random_graph(200, 0.06, seed=1)
        cc = congested_clique_fractional_matching(g, seed=3)
        mpc = mpc_fractional_matching(g, seed=3)
        assert np.array_equal(cc.matching.edges, mpc.matching.edges)
        assert np.array_equal(cc.matching.x, mpc.matching.x)
        assert np.array_equal(cc.vertex_cover, mpc.vertex_cover)

    def test_cover_covers(self):
        g = gnp_random_graph(200, 0.06, seed=2)
        result = congested_clique_fractional_matching(g, seed=2)
        assert is_vertex_cover(g, result.vertex_cover)
        assert result.matching.is_valid()

    def test_rounds_accounted(self):
        g = gnp_random_graph(300, 0.05, seed=3)
        result = congested_clique_fractional_matching(g, seed=3)
        # At least: setup + per-phase (gather 2 + reply 1 + notify 1) + tail.
        minimum = 1 + result.phases * 4 + result.direct_iterations
        assert result.rounds >= minimum

    def test_rounds_stay_flat_across_sizes(self):
        rounds = []
        for n in (256, 1024):
            g = gnp_random_graph(n, 16.0 / n, seed=4)
            rounds.append(congested_clique_fractional_matching(g, seed=4).rounds)
        assert rounds[1] - rounds[0] <= 15

    def test_empty(self):
        result = congested_clique_fractional_matching(Graph(0))
        assert result.rounds == 0
        assert result.weight == 0.0

    def test_quality_inherited(self):
        from repro.baselines.blossom import maximum_matching

        eps = 0.1
        g = gnp_random_graph(192, 0.08, seed=5)
        result = congested_clique_fractional_matching(
            g, config=MatchingConfig(epsilon=eps), seed=5
        )
        optimum = len(maximum_matching(g))
        assert result.weight >= optimum / (2 + 50 * eps) - 1e-9
