"""Unit tests for Central / Central-Rand (Section 4.1, Lemma 4.1)."""

import math

import numpy as np
import pytest

from repro.baselines.blossom import maximum_matching
from repro.core.central import (
    NEVER_FROZEN,
    central_fractional_matching,
    edge_weights_from_freezes,
)
from repro.graph.generators import (
    complete_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.graph.properties import is_vertex_cover


class TestTermination:
    def test_terminates_within_log_bound(self):
        g = gnp_random_graph(256, 0.1, seed=1)
        eps = 0.1
        result = central_fractional_matching(g, epsilon=eps, seed=1)
        bound = math.log(256) / -math.log(1 - eps)
        assert 0 < result.iterations <= 2 * bound + 10

    def test_empty_graph(self):
        result = central_fractional_matching(Graph(0))
        assert result.iterations == 0
        assert result.weight == 0.0

    def test_edgeless_graph(self):
        result = central_fractional_matching(Graph(5))
        assert result.weight == 0.0
        assert result.vertex_cover.size == 0
        assert result.freeze_at.tolist() == [NEVER_FROZEN] * 5

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            central_fractional_matching(path_graph(4), epsilon=0.7)


class TestInvariants:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_fractional_matching_valid(self, eps):
        g = gnp_random_graph(128, 0.1, seed=2)
        result = central_fractional_matching(g, epsilon=eps, seed=2)
        assert result.matching.is_valid()

    @pytest.mark.parametrize("randomized", [False, True])
    def test_cover_covers(self, randomized):
        g = gnp_random_graph(128, 0.08, seed=3)
        result = central_fractional_matching(
            g, epsilon=0.1, randomized_thresholds=randomized, seed=3
        )
        assert is_vertex_cover(g, result.vertex_cover)

    def test_every_frozen_vertex_has_high_load(self):
        g = gnp_random_graph(100, 0.1, seed=4)
        eps = 0.1
        result = central_fractional_matching(g, epsilon=eps, seed=4)
        loads = result.matching.vertex_loads()
        for v in result.vertex_cover:
            # Frozen at T >= 1-4eps; later freezes of neighbors never lower it.
            assert loads[v] >= 1 - 4 * eps - 1e-9

    def test_star_freezes_center(self):
        g = star_graph(20)
        result = central_fractional_matching(g, epsilon=0.1, seed=5)
        assert 0 in result.vertex_cover
        assert is_vertex_cover(g, result.vertex_cover)


class TestApproximation:
    @pytest.mark.parametrize(
        "maker,seed",
        [
            (lambda: gnp_random_graph(128, 0.08, seed=6), 6),
            (lambda: path_graph(64), 7),
            (lambda: complete_graph(32), 8),
        ],
    )
    def test_lemma_4_1_bounds(self, maker, seed):
        """Weight within (2+5ε) of max matching; cover within (2+5ε) of VC*."""
        g = maker()
        eps = 0.1
        result = central_fractional_matching(g, epsilon=eps, seed=seed)
        optimum = len(maximum_matching(g))
        if optimum == 0:
            return
        # Fractional weight >= |M*| / (2+5eps)
        assert result.weight >= optimum / (2 + 5 * eps) - 1e-9
        # Cover at most (2+5eps) * |M*| >= (2+5eps) * |VC*| by duality
        assert len(result.vertex_cover) <= (2 + 5 * eps) * optimum + 1e-9

    def test_randomized_thresholds_same_guarantees(self):
        g = gnp_random_graph(128, 0.08, seed=9)
        eps = 0.08
        result = central_fractional_matching(
            g, epsilon=eps, randomized_thresholds=True, seed=9
        )
        optimum = len(maximum_matching(g))
        assert result.weight >= optimum / (2 + 5 * eps) - 1e-9
        assert result.matching.is_valid()


class TestFreezeBookkeeping:
    def test_freeze_iterations_recorded(self):
        g = path_graph(10)
        result = central_fractional_matching(g, epsilon=0.1, seed=10)
        frozen = np.flatnonzero(result.freeze_at != NEVER_FROZEN)
        assert np.array_equal(frozen, result.vertex_cover)

    def test_edge_weights_reconstruction(self):
        g = Graph(3, [(0, 1), (1, 2)])
        edges, x = edge_weights_from_freezes(
            g,
            freeze_at=np.array([NEVER_FROZEN, 2, NEVER_FROZEN]),
            initial_weight=0.1,
            epsilon=0.1,
            final_iteration=5,
        )
        growth = 1 / 0.9
        assert edges.tolist() == [[0, 1], [1, 2]]
        assert x[0] == pytest.approx(0.1 * growth**2)
        assert x[1] == pytest.approx(0.1 * growth**2)

    def test_determinism(self):
        g = gnp_random_graph(100, 0.1, seed=11)
        a = central_fractional_matching(g, epsilon=0.1, seed=12, randomized_thresholds=True)
        b = central_fractional_matching(g, epsilon=0.1, seed=12, randomized_thresholds=True)
        assert np.array_equal(a.freeze_at, b.freeze_at)
        assert a.weight == b.weight
