"""Unit tests for the (1+ε) augmenting-path improvement (Corollary 1.3)."""

import pytest

from repro.baselines.blossom import maximum_matching
from repro.core.augmenting import (
    find_disjoint_augmenting_paths,
    improve_matching,
    one_plus_eps_matching,
)
from repro.graph.generators import (
    gnp_random_graph,
    path_graph,
    random_bipartite_graph,
)
from repro.graph.graph import Graph
from repro.graph.properties import is_matching
from tests.reference.hopcroft_karp import hopcroft_karp_matching


class TestPathFinding:
    def test_finds_length_one_augmenting_path(self):
        g = Graph(2, [(0, 1)])
        paths = find_disjoint_augmenting_paths(g, set(), max_path_length=1)
        assert paths == [[0, 1]]

    def test_finds_length_three_path(self):
        # P4 matched in the middle: augmenting path uses all 3 edges.
        g = path_graph(4)
        paths = find_disjoint_augmenting_paths(g, {(1, 2)}, max_path_length=3)
        assert len(paths) == 1
        assert len(paths[0]) == 4

    def test_respects_length_bound(self):
        g = path_graph(4)
        paths = find_disjoint_augmenting_paths(g, {(1, 2)}, max_path_length=1)
        assert paths == []

    def test_paths_are_vertex_disjoint(self):
        g = gnp_random_graph(100, 0.06, seed=1)
        paths = find_disjoint_augmenting_paths(g, set(), max_path_length=3)
        seen = set()
        for path in paths:
            assert not (set(path) & seen)
            seen.update(path)


class TestImprovement:
    def test_empty_matching_becomes_maximal_plus(self):
        g = path_graph(7)
        outcome = improve_matching(g, set(), max_path_length=5)
        assert is_matching(g, outcome.matching)
        assert len(outcome.matching) == 3  # optimum on P7

    def test_never_shrinks(self):
        g = gnp_random_graph(80, 0.08, seed=3)
        from repro.baselines.greedy import greedy_maximal_matching

        start = greedy_maximal_matching(g, seed=3)
        outcome = improve_matching(g, start, max_path_length=5)
        assert len(outcome.matching) >= len(start)
        assert is_matching(g, outcome.matching)


class TestOnePlusEps:
    def test_bipartite_guarantee(self):
        """On bipartite graphs the short-path search is exact, so the
        Hopcroft-Karp bound makes (1+ε) a theorem, not a heuristic."""
        eps = 0.34  # k=3, paths up to length 5
        g = random_bipartite_graph(60, 60, 0.08, seed=4)
        result = one_plus_eps_matching(g, epsilon=eps, seed=4)
        optimum = len(hopcroft_karp_matching(g))
        assert len(result.matching) >= optimum / (1 + eps) - 1e-9
        assert is_matching(g, result.matching)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_general_graph_quality(self, seed):
        eps = 0.25
        g = gnp_random_graph(120, 0.06, seed=seed)
        result = one_plus_eps_matching(g, epsilon=eps, seed=seed)
        optimum = len(maximum_matching(g))
        assert len(result.matching) >= optimum / (1 + eps + 0.1)

    def test_tighter_eps_not_worse(self):
        g = random_bipartite_graph(40, 40, 0.1, seed=7)
        loose = one_plus_eps_matching(g, epsilon=0.5, seed=7)
        tight = one_plus_eps_matching(g, epsilon=0.2, seed=7)
        assert len(tight.matching) >= len(loose.matching) - 1

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            one_plus_eps_matching(path_graph(4), epsilon=0.0)

    def test_path_length_schedule(self):
        g = path_graph(6)
        result = one_plus_eps_matching(g, epsilon=0.5, seed=8)
        assert result.max_path_length == 3  # k = 2
