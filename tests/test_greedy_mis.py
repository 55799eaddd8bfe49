"""Unit tests for the sequential randomized greedy MIS process."""

import random

import numpy as np
import pytest

from repro.core.greedy_mis import (
    greedy_mis,
    greedy_mis_on_prefix_csr,
    randomized_greedy_mis,
    residual_after_prefix,
)
from repro.graph.csr import as_csr
from repro.graph.generators import gnp_random_graph, path_graph, star_graph
from repro.graph.graph import Graph
from repro.graph.properties import is_maximal_independent_set


class TestGreedy:
    def test_path_first_order(self):
        g = path_graph(5)
        assert greedy_mis(g, [0, 1, 2, 3, 4]).tolist() == [0, 2, 4]

    def test_star_center_first(self):
        g = star_graph(5)
        assert greedy_mis(g, list(range(6))).tolist() == [0]

    def test_star_leaf_first(self):
        g = star_graph(5)
        assert greedy_mis(g, [1, 2, 3, 4, 5, 0]).tolist() == [1, 2, 3, 4, 5]

    def test_invalid_order_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            greedy_mis(g, [0, 1])
        with pytest.raises(ValueError):
            greedy_mis(g, [0, 0, 1])

    def test_always_maximal(self):
        g = gnp_random_graph(80, 0.1, seed=1)
        for seed in range(5):
            mis = randomized_greedy_mis(g, seed=seed)
            assert is_maximal_independent_set(g, mis)

    def test_deterministic_under_seed(self):
        g = gnp_random_graph(60, 0.2, seed=2)
        a = randomized_greedy_mis(g, seed=7)
        assert np.array_equal(a, randomized_greedy_mis(g, seed=7))


class TestPrefixSimulation:
    def test_prefix_agrees_with_sequential(self):
        """Batched prefix processing must replay sequential greedy exactly."""
        g = gnp_random_graph(100, 0.08, seed=3)
        ranks = list(range(100))
        random.Random(5).shuffle(ranks)
        order = sorted(g.vertices(), key=lambda v: ranks[v])
        sequential = greedy_mis(g, order)

        # Replay in three prefix batches on the original graph's CSR: the
        # undecided prefix vertices induce the same edges in the residual.
        csr = as_csr(g)
        rank_array = np.asarray(ranks, dtype=np.int64)
        decided = set()
        batched = set()
        for cutoff in (30, 70, 100):
            prefix = [
                v
                for v in g.vertices()
                if ranks[v] < cutoff and v not in decided
            ]
            new_mis = greedy_mis_on_prefix_csr(
                csr, rank_array, np.asarray(prefix, dtype=np.int64)
            ).tolist()
            for v in new_mis:
                batched.add(v)
                decided.add(v)
                decided |= g.neighbors_view(v)
            decided.update(prefix)
        assert sorted(batched) == sequential.tolist()

    def test_residual_after_prefix_degree_drops(self):
        g = gnp_random_graph(200, 0.2, seed=4)
        ranks = list(range(200))
        random.Random(9).shuffle(ranks)
        residual, mis = residual_after_prefix(g, ranks, up_to_rank=100)
        # Lemma 3.1: degrees shrink markedly after half the ranks.
        assert residual.max_degree() < g.max_degree()
        assert len(mis) > 0

    def test_residual_after_all_ranks_is_empty(self):
        g = gnp_random_graph(50, 0.2, seed=5)
        ranks = list(range(50))
        residual, mis = residual_after_prefix(g, ranks, up_to_rank=50)
        assert residual.num_edges == 0
        assert is_maximal_independent_set(g, mis)
