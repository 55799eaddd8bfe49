"""Integration tests: full pipelines across modules, as a user would run them."""

import pytest

from repro import (
    MatchingConfig,
    barabasi_albert,
    congested_clique_mis,
    gnp_random_graph,
    mis_mpc,
    mpc_fractional_matching,
    mpc_maximum_matching,
    mpc_vertex_cover,
    mpc_weighted_matching,
    one_plus_eps_matching,
    random_bipartite_graph,
)
from repro.baselines.blossom import maximum_matching
from repro.graph.generators import random_weighted_graph
from repro.graph.properties import (
    is_matching,
    is_maximal_independent_set,
    is_vertex_cover,
)
from tests.reference.hopcroft_karp import hopcroft_karp_matching


class TestFullPipelines:
    def test_mis_both_models_agree_on_validity(self):
        """MPC and CONGESTED-CLIQUE MIS under the same seed: both maximal."""
        g = barabasi_albert(300, 4, seed=1)
        mpc_result = mis_mpc(g, seed=1)
        cc_result = congested_clique_mis(g, seed=1)
        assert is_maximal_independent_set(g, mpc_result.mis)
        assert is_maximal_independent_set(g, cc_result.mis)

    def test_matching_and_cover_duality(self):
        """Weak LP duality observed end to end: the fractional matching
        weight never exceeds the integral cover size."""
        g = gnp_random_graph(300, 0.04, seed=2)
        fractional = mpc_fractional_matching(g, seed=2)
        assert fractional.weight <= len(fractional.vertex_cover) + 1e-6

    def test_matching_vs_cover_sandwich(self):
        """|M| <= |VC| <= 2+eps approx, full public API path."""
        g = gnp_random_graph(250, 0.05, seed=3)
        config = MatchingConfig(epsilon=0.1)
        matching = mpc_maximum_matching(g, config=config, seed=3)
        cover = mpc_vertex_cover(g, config=config, seed=3)
        assert is_matching(g, matching.matching)
        assert is_vertex_cover(g, cover.cover)
        assert len(matching.matching) <= cover.size

    def test_social_network_workload(self):
        """Power-law graph through MIS + matching + cover, all invariants."""
        g = barabasi_albert(400, 3, seed=4)
        mis = mis_mpc(g, seed=4)
        matching = mpc_maximum_matching(g, seed=4)
        cover = mpc_vertex_cover(g, seed=4)
        assert is_maximal_independent_set(g, mis.mis)
        assert is_matching(g, matching.matching)
        assert is_vertex_cover(g, cover.cover)
        optimum = len(maximum_matching(g))
        assert len(matching.matching) >= optimum / 2.2

    def test_bipartite_pipeline_vs_exact(self):
        g = random_bipartite_graph(100, 100, 0.04, seed=5)
        optimum = len(hopcroft_karp_matching(g))
        approx = mpc_maximum_matching(g, seed=5)
        improved = one_plus_eps_matching(g, epsilon=0.34, seed=5)
        assert len(approx.matching) >= optimum / 2.2
        assert len(improved.matching) >= optimum / 1.35
        assert len(improved.matching) >= len(approx.matching) * 0.99

    def test_weighted_pipeline(self):
        wg = random_weighted_graph(150, 0.05, distribution="zipf", seed=6)
        result = mpc_weighted_matching(wg, epsilon=0.1, seed=6)
        assert is_matching(wg.structure, result.matching)
        # Weight is at least the heaviest edge over 2 (greedy-by-class
        # always matches something in the top class).
        assert result.weight >= wg.max_weight() / 2

    def test_round_counts_stay_in_loglog_budget(self):
        """The paper's algorithm must fit a doubly-logarithmic round budget
        across an 8x size sweep.  (An absolute head-to-head vs Luby is not
        meaningful at simulable sizes — Luby's constant is tiny and the
        crossover lies beyond any single-machine simulation; EXPERIMENTS.md
        records both series honestly.)"""
        import math

        for n in (256, 2048):
            g = gnp_random_graph(n, 0.1, seed=7)
            paper = mis_mpc(g, seed=7)
            budget = 6 * math.log2(math.log2(n * g.max_degree())) + 4
            assert paper.rounds <= budget

    def test_determinism_across_public_api(self):
        g = gnp_random_graph(150, 0.07, seed=8)
        assert mis_mpc(g, seed=0).mis.tolist() == mis_mpc(g, seed=0).mis.tolist()
        assert (
            mpc_maximum_matching(g, seed=0).matching.tolist()
            == mpc_maximum_matching(g, seed=0).matching.tolist()
        )
        wg = random_weighted_graph(60, 0.1, seed=8)
        assert (
            mpc_weighted_matching(wg, seed=0).weight
            == mpc_weighted_matching(wg, seed=0).weight
        )
