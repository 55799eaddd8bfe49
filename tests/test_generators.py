"""Unit tests for synthetic graph generators."""

import math

import pytest

from repro.graph.generators import (
    barabasi_albert,
    caterpillar,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    planted_matching_graph,
    random_bipartite_graph,
    random_weighted_graph,
    star_graph,
)
from repro.graph.properties import is_matching
from tests.reference.hopcroft_karp import bipartition


class TestGnp:
    def test_determinism(self):
        a = gnp_random_graph(50, 0.2, seed=7)
        b = gnp_random_graph(50, 0.2, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = gnp_random_graph(50, 0.2, seed=7)
        b = gnp_random_graph(50, 0.2, seed=8)
        assert a != b

    def test_extremes(self):
        assert gnp_random_graph(20, 0.0).num_edges == 0
        assert gnp_random_graph(6, 1.0).num_edges == 15

    def test_edge_count_near_expectation(self):
        n, p = 400, 0.1
        g = gnp_random_graph(n, p, seed=3)
        expected = p * n * (n - 1) / 2
        assert abs(g.num_edges - expected) < 0.15 * expected

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            gnp_random_graph(10, 1.5)


class TestGnm:
    def test_exact_edge_count(self):
        g = gnm_random_graph(30, 100, seed=1)
        assert g.num_edges == 100

    def test_dense_path(self):
        g = gnm_random_graph(10, 44, seed=1)  # 44 of 45 possible
        assert g.num_edges == 44

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            gnm_random_graph(4, 7)


class TestBarabasiAlbert:
    def test_sizes(self):
        g = barabasi_albert(100, 3, seed=2)
        assert g.num_vertices == 100
        # seed clique C(4,2)=6 edges + 96 * 3 attachments
        assert g.num_edges == 6 + 96 * 3

    def test_heavy_tail(self):
        g = barabasi_albert(500, 2, seed=5)
        degrees = sorted(g.degrees(), reverse=True)
        # Hubs should far exceed the minimum attachment degree.
        assert degrees[0] > 5 * 2

    def test_power_law_skew_exceeds_gnp(self):
        """The generator families land in their intended regimes."""

        def skew_ratio(graph):
            degrees = graph.degrees()
            return max(degrees) / (sum(degrees) / len(degrees))

        ba = barabasi_albert(600, 3, seed=1)
        er = gnp_random_graph(600, 6.0 / 599, seed=1)
        assert skew_ratio(ba) > skew_ratio(er)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            barabasi_albert(3, 3)
        with pytest.raises(ValueError):
            barabasi_albert(10, 0)


class TestBipartite:
    def test_is_bipartite(self):
        g = random_bipartite_graph(20, 30, 0.3, seed=4)
        assert bipartition(g) is not None

    def test_sides_respected(self):
        g = random_bipartite_graph(5, 5, 1.0)
        for u, v in g.edges():
            assert (u < 5) != (v < 5)


class TestPlanted:
    def test_planted_is_perfect_matching(self):
        g, planted = planted_matching_graph(30, noise_edges=50, seed=6)
        assert len(planted) == 30
        assert is_matching(g, planted)
        assert g.num_edges == 30 + 50

    def test_planted_lower_bounds_maximum(self):
        from repro.baselines.blossom import maximum_matching

        g, planted = planted_matching_graph(15, noise_edges=20, seed=7)
        assert len(maximum_matching(g)) >= len(planted) - 0  # perfect


class TestStructured:
    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert path_graph(1).num_edges == 0

    def test_cycle(self):
        assert cycle_graph(5).num_edges == 5
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(7)
        assert g.degree(0) == 7
        assert g.num_edges == 7

    def test_complete(self):
        assert complete_graph(5).num_edges == 10

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_caterpillar(self):
        g = caterpillar(4, 2)
        assert g.num_vertices == 4 + 8
        assert g.num_edges == 3 + 8


class TestWeighted:
    def test_uniform_weights_positive(self):
        wg = random_weighted_graph(30, 0.3, distribution="uniform", seed=8)
        assert all(w > 0 for _, _, w in wg.edges())

    def test_zipf_is_heavy_tailed(self):
        wg = random_weighted_graph(30, 0.5, max_weight=100.0, distribution="zipf", seed=9)
        weights = sorted((w for _, _, w in wg.edges()), reverse=True)
        assert weights[0] == pytest.approx(100.0)
        assert weights[-1] < 10.0

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            random_weighted_graph(10, 0.5, distribution="pareto")
