"""Unit tests for the MPC MIS algorithm (Theorem 1.1)."""

import math

import pytest

from repro.core.config import MISConfig
from repro.core.mis_mpc import mis_mpc, rank_schedule
from repro.graph.generators import (
    complete_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.graph.properties import is_maximal_independent_set


class TestRankSchedule:
    def test_sparse_graph_has_no_prefix_phases(self):
        config = MISConfig()
        assert rank_schedule(1000, max_degree=4, config=config) == []

    def test_schedule_increasing_and_ends_at_floor(self):
        config = MISConfig()
        n, delta = 100_000, 1000
        cutoffs = rank_schedule(n, delta, config)
        assert cutoffs == sorted(cutoffs)
        assert cutoffs[-1] == max(1, n // config.sparse_degree_threshold(n))

    def test_schedule_length_is_loglog(self):
        config = MISConfig()
        cutoffs = rank_schedule(10**6, 10**5, config)
        # O(log log Δ): far fewer phases than log Δ.
        assert len(cutoffs) <= 4 * math.log2(math.log2(10**5))

    def test_empty_graph(self):
        assert rank_schedule(0, 0, MISConfig()) == []


class TestMISMPC:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_maximal_independent_on_gnp(self, seed):
        g = gnp_random_graph(300, 0.05, seed=seed)
        result = mis_mpc(g, seed=seed)
        assert is_maximal_independent_set(g, result.mis)

    def test_dense_graph_exercises_prefix_phases(self):
        g = gnp_random_graph(500, 0.5, seed=3)
        result = mis_mpc(g, seed=3)
        assert result.prefix_phases >= 1
        assert is_maximal_independent_set(g, result.mis)

    def test_complete_graph(self):
        g = complete_graph(60)
        result = mis_mpc(g, seed=4)
        assert len(result.mis) == 1

    def test_star(self):
        g = star_graph(40)
        result = mis_mpc(g, seed=5)
        assert is_maximal_independent_set(g, result.mis)

    def test_path(self):
        g = path_graph(51)
        result = mis_mpc(g, seed=6)
        assert is_maximal_independent_set(g, result.mis)

    def test_empty_and_edgeless(self):
        assert mis_mpc(Graph(0)).mis.tolist() == []
        result = mis_mpc(Graph(8), seed=1)
        assert result.mis.tolist() == list(range(8))

    def test_determinism(self):
        g = gnp_random_graph(150, 0.1, seed=7)
        a = mis_mpc(g, seed=11)
        b = mis_mpc(g, seed=11)
        assert a.mis.tolist() == b.mis.tolist()
        assert a.rounds == b.rounds

    def test_shipped_edges_fit_memory(self):
        config = MISConfig(memory_factor=8)
        g = gnp_random_graph(400, 0.4, seed=8)
        result = mis_mpc(g, seed=8, config=config)
        assert result.max_shipped_edges * 2 <= config.memory_factor * 400

    def test_rounds_reported_positive(self):
        g = gnp_random_graph(100, 0.1, seed=9)
        assert mis_mpc(g, seed=9).rounds > 0

    def test_rounds_grow_sublogarithmically(self):
        """Doubling n repeatedly must grow rounds far slower than log n."""
        config = MISConfig()
        rounds = []
        for n in (256, 1024, 4096):
            g = gnp_random_graph(n, min(1.0, 32.0 / n), seed=10)
            rounds.append(mis_mpc(g, seed=10, config=config).rounds)
        assert rounds[-1] - rounds[0] <= 4
