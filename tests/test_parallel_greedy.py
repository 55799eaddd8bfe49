"""Unit tests for the parallel randomized greedy MIS ([BFS12]/[FN18])."""

import math

import pytest

from repro.core.greedy_mis import greedy_mis
from repro.graph.generators import (
    complete_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.graph.properties import is_maximal_independent_set
from tests.reference.parallel_greedy import parallel_greedy_mis


class TestEquivalenceWithSequential:
    """The defining property: identical output to sequential greedy under
    the same permutation (both resolve the same dependency DAG)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_sequential_exactly(self, seed):
        g = gnp_random_graph(120, 0.08, seed=seed)
        import random

        ranks = list(range(120))
        random.Random(seed).shuffle(ranks)
        order = sorted(g.vertices(), key=lambda v: ranks[v])
        sequential = greedy_mis(g, order)
        parallel = parallel_greedy_mis(g, ranks=ranks)
        assert sorted(parallel.mis) == sequential.tolist()

    def test_path_identity_permutation(self):
        g = path_graph(6)
        result = parallel_greedy_mis(g, ranks=list(range(6)))
        assert result.mis == {0, 2, 4}
        assert result.rounds <= 3


class TestRoundComplexity:
    def test_rounds_logarithmic(self):
        """[FN18]: Θ(log n) rounds w.h.p."""
        g = gnp_random_graph(1000, 0.02, seed=5)
        result = parallel_greedy_mis(g, seed=5)
        assert result.rounds <= 6 * math.log2(1000)

    def test_complete_graph_one_round(self):
        result = parallel_greedy_mis(complete_graph(30), seed=6)
        assert result.rounds == 1
        assert len(result.mis) == 1

    def test_decided_counts_sum_to_n(self):
        g = gnp_random_graph(100, 0.1, seed=7)
        result = parallel_greedy_mis(g, seed=7)
        assert sum(result.decided_per_round) == 100


class TestValidity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_maximal_independent(self, seed):
        g = gnp_random_graph(150, 0.06, seed=seed)
        result = parallel_greedy_mis(g, seed=seed)
        assert is_maximal_independent_set(g, result.mis)

    def test_star(self):
        result = parallel_greedy_mis(star_graph(20), seed=8)
        assert is_maximal_independent_set(star_graph(20), result.mis)

    def test_empty(self):
        result = parallel_greedy_mis(Graph(0))
        assert result.mis == set()
        assert result.rounds == 0

    def test_invalid_ranks_rejected(self):
        with pytest.raises(ValueError):
            parallel_greedy_mis(path_graph(3), ranks=[0, 0, 1])

    def test_determinism(self):
        g = gnp_random_graph(80, 0.1, seed=9)
        assert parallel_greedy_mis(g, seed=1).mis == parallel_greedy_mis(g, seed=1).mis
