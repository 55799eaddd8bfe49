"""Unit tests for baseline algorithms: Luby, greedy, Israeli-Itai,
filtering, Blossom, and the brute-force solvers; Hopcroft-Karp and a
brute-force maximum matching are the test-side references Blossom is
checked against."""

import math
import random
from typing import Set

import pytest

from repro.baselines.blossom import maximum_matching, maximum_matching_size
from repro.baselines.exact import (
    brute_force_maximum_weight_matching,
    brute_force_minimum_vertex_cover,
    exact_maximum_independent_set,
)
from repro.baselines.filtering import filtering_maximal_matching
from repro.baselines.greedy import greedy_maximal_matching
from repro.baselines.israeli_itai import israeli_itai_matching
from repro.baselines.luby import luby_mis
from repro.core.greedy_mis import greedy_mis, randomized_greedy_mis
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    random_bipartite_graph,
    star_graph,
)
from repro.graph.graph import Edge, Graph
from repro.graph.properties import (
    is_matching,
    is_maximal_independent_set,
    is_maximal_matching,
    is_vertex_cover,
)
from repro.graph.weighted import WeightedGraph
from repro.ooc import load_csr, save_csr
from tests.reference import filtering as reference_filtering
from tests.reference.hopcroft_karp import bipartition, hopcroft_karp_matching

_MAX_BRUTE_FORCE_VERTICES = 40


def brute_force_maximum_matching(graph: Graph) -> Set[Edge]:
    """Maximum matching by exhaustive edge branching (tiny graphs only)."""
    edges = graph.edge_list()
    if len(edges) > 2 * _MAX_BRUTE_FORCE_VERTICES:
        raise ValueError("exact matching enumeration limited to tiny graphs")

    best: Set[Edge] = set()

    def solve(index: int, used: Set[int], current: Set[Edge]) -> None:
        nonlocal best
        if index == len(edges):
            if len(current) > len(best):
                best = set(current)
            return
        u, v = edges[index]
        if u not in used and v not in used:
            current.add((u, v))
            used.add(u)
            used.add(v)
            solve(index + 1, used, current)
            current.remove((u, v))
            used.discard(u)
            used.discard(v)
        solve(index + 1, used, current)

    solve(0, set(), set())
    return best


class TestLuby:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_maximal_independent(self, seed):
        g = gnp_random_graph(150, 0.08, seed=seed)
        result = luby_mis(g, seed=seed)
        assert is_maximal_independent_set(g, result.mis)

    def test_rounds_logarithmic(self):
        g = gnp_random_graph(500, 0.05, seed=3)
        result = luby_mis(g, seed=3)
        assert result.rounds <= 6 * math.log2(500)

    def test_edgeless(self):
        result = luby_mis(Graph(5), seed=1)
        assert result.mis == set(range(5))
        assert result.rounds == 1


class TestGreedyBaselines:
    def test_greedy_mis(self):
        g = gnp_random_graph(100, 0.1, seed=4)
        assert is_maximal_independent_set(g, randomized_greedy_mis(g, seed=4))

    @pytest.mark.parametrize(
        "graph",
        [
            gnp_random_graph(120, 0.06, seed=7),
            barabasi_albert(120, 3, seed=7),
            Graph(9, [(0, 1), (1, 2), (5, 6)]),
        ],
        ids=["gnp", "ba", "isolated"],
    )
    def test_greedy_mis_is_greedy_over_shuffled_range(self, graph):
        # The CSR walk keeps the set-graph semantics: greedy over an MT
        # shuffle of range(n), each pick blocking its closed neighbourhood.
        for seed in range(5):
            order = list(range(graph.num_vertices))
            random.Random(seed).shuffle(order)
            expected = set()
            for v in order:
                if not graph.neighbors_view(v) & expected:
                    expected.add(v)
            assert greedy_mis(graph, order).tolist() == sorted(expected)
            assert randomized_greedy_mis(graph, seed=seed).tolist() == sorted(expected)

    def test_greedy_mis_same_on_csr_and_mmap(self, tmp_path):
        g = barabasi_albert(150, 2, seed=3)
        expected = randomized_greedy_mis(g, seed=11).tolist()
        csr = CSRGraph.from_graph(g)
        assert randomized_greedy_mis(csr, seed=11).tolist() == expected
        save_csr(csr, tmp_path / "g")
        mmap = load_csr(tmp_path / "g")
        assert randomized_greedy_mis(mmap, seed=11).tolist() == expected

    def test_greedy_mis_edgeless_and_empty(self):
        assert randomized_greedy_mis(Graph(0), seed=1).tolist() == []
        empty = CSRGraph.from_graph(Graph(0))
        assert randomized_greedy_mis(empty, seed=1).tolist() == []
        assert randomized_greedy_mis(Graph(4), seed=1).tolist() == [0, 1, 2, 3]

    def test_greedy_matching_maximal(self):
        g = gnp_random_graph(100, 0.1, seed=5)
        assert is_maximal_matching(g, greedy_maximal_matching(g, seed=5))

    def test_greedy_matching_with_fixed_order(self):
        g = path_graph(4)
        matching = greedy_maximal_matching(g, order=[(0, 1), (1, 2), (2, 3)])
        assert matching.tolist() == [[0, 1], [2, 3]]


class TestIsraeliItai:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_maximal_matching(self, seed):
        g = gnp_random_graph(120, 0.08, seed=seed)
        result = israeli_itai_matching(g, seed=seed)
        assert is_maximal_matching(g, result.matching)

    def test_rounds_logarithmic(self):
        g = gnp_random_graph(400, 0.05, seed=2)
        result = israeli_itai_matching(g, seed=2)
        assert result.rounds <= 8 * math.log2(400)

    def test_star(self):
        result = israeli_itai_matching(star_graph(20), seed=3)
        assert len(result.matching) == 1


@pytest.mark.parametrize(
    "baseline", [luby_mis, israeli_itai_matching], ids=["luby", "israeli_itai"]
)
def test_output_independent_of_representation(baseline, tmp_path):
    """A ``Graph``, its ``CSRGraph`` and its ``MMapCSRGraph`` give the same
    seeded result (the Barabási–Albert build order is not ascending)."""
    graph = barabasi_albert(80, 3, seed=0)
    csr = CSRGraph.from_graph(graph)
    mmap = load_csr(save_csr(csr, tmp_path / "graph"))
    results = [baseline(g, seed=7) for g in (graph, csr, mmap)]
    assert results[0] == results[1] == results[2]


class TestFiltering:
    def test_maximal_matching(self):
        g = gnp_random_graph(150, 0.1, seed=6)
        result = filtering_maximal_matching(g, words_per_machine=4 * 150, seed=6)
        assert is_maximal_matching(g, result.matching)

    def test_residuals_shrink(self):
        g = gnp_random_graph(300, 0.15, seed=7)
        result = filtering_maximal_matching(g, words_per_machine=2 * 300, seed=7)
        trajectory = result.residual_edges_per_round
        assert trajectory[-1] == 0
        assert all(
            later <= earlier
            for earlier, later in zip(trajectory, trajectory[1:])
        )

    def test_tiny_memory_rejected(self):
        with pytest.raises(ValueError):
            filtering_maximal_matching(path_graph(3), words_per_machine=4)

    def test_fits_in_one_round_when_memory_large(self):
        g = gnp_random_graph(50, 0.1, seed=8)
        result = filtering_maximal_matching(g, words_per_machine=10**6, seed=8)
        assert result.rounds == 1

    @pytest.mark.parametrize("words", [2 * 60, 4 * 300])
    @pytest.mark.parametrize(
        "graph",
        [
            gnp_random_graph(200, 0.08, seed=3),
            barabasi_albert(200, 4, seed=3),
            star_graph(80),
        ],
        ids=["gnp", "ba", "star"],
    )
    def test_matches_set_graph_reference(self, graph, words):
        """The mask-over-CSR loop makes the set-graph loop's draws: same
        matching, rounds and residual trajectory for every seed."""
        for seed in range(10):
            result = filtering_maximal_matching(
                graph, words_per_machine=words, seed=seed
            )
            assert (
                set(map(tuple, result.matching.tolist())),
                result.rounds,
                result.residual_edges_per_round,
            ) == reference_filtering.filtering_maximal_matching(
                graph, words_per_machine=words, seed=seed
            )

    def test_output_independent_of_representation(self, tmp_path):
        graph = barabasi_albert(150, 3, seed=5)
        csr = CSRGraph.from_graph(graph)
        mmap = load_csr(save_csr(csr, tmp_path / "graph"))
        results = [
            filtering_maximal_matching(g, words_per_machine=2 * 100, seed=4)
            for g in (graph, csr, mmap)
        ]
        assert results[0].rounds > 1
        runs = [
            (r.matching.tolist(), r.rounds, r.residual_edges_per_round)
            for r in results
        ]
        assert runs[0] == runs[1] == runs[2]


class TestHopcroftKarp:
    def test_bipartition_detects(self):
        assert bipartition(path_graph(5)) is not None
        assert bipartition(cycle_graph(5)) is None

    def test_exact_on_even_cycle(self):
        assert len(hopcroft_karp_matching(cycle_graph(8))) == 4

    def test_exact_on_path(self):
        assert len(hopcroft_karp_matching(path_graph(7))) == 3

    def test_random_bipartite_agrees_with_blossom(self):
        g = random_bipartite_graph(40, 40, 0.08, seed=9)
        assert len(hopcroft_karp_matching(g)) == maximum_matching_size(g)

    def test_rejects_odd_cycle(self):
        with pytest.raises(ValueError):
            hopcroft_karp_matching(cycle_graph(5))

    def test_output_is_matching(self):
        g = random_bipartite_graph(30, 50, 0.1, seed=10)
        assert is_matching(g, hopcroft_karp_matching(g))


class TestBlossom:
    def test_odd_cycle(self):
        assert maximum_matching_size(cycle_graph(5)) == 2
        assert maximum_matching_size(cycle_graph(7)) == 3

    def test_complete_graphs(self):
        assert maximum_matching_size(complete_graph(6)) == 3
        assert maximum_matching_size(complete_graph(7)) == 3

    def test_petersen_has_perfect_matching(self, petersen):
        assert maximum_matching_size(petersen) == 5

    def test_agrees_with_brute_force(self):
        for seed in range(6):
            g = gnp_random_graph(12, 0.3, seed=seed)
            assert maximum_matching_size(g) == len(
                brute_force_maximum_matching(g)
            )

    def test_output_is_matching(self):
        g = gnp_random_graph(60, 0.1, seed=11)
        assert is_matching(g, maximum_matching(g))

    def test_blossom_within_blossom(self):
        """Two fused triangles plus a tail force nested contractions."""
        g = Graph(
            8,
            [
                (0, 1), (1, 2), (0, 2),  # triangle
                (2, 3), (3, 4), (4, 2),  # second triangle sharing vertex 2
                (4, 5), (5, 6), (6, 7),
            ],
        )
        assert maximum_matching_size(g) == len(brute_force_maximum_matching(g))


class TestExact:
    def test_mis_on_structures(self):
        assert len(exact_maximum_independent_set(star_graph(6))) == 6
        assert len(exact_maximum_independent_set(cycle_graph(5))) == 2
        assert len(exact_maximum_independent_set(complete_graph(5))) == 1

    def test_vc_complements_mis(self):
        g = gnp_random_graph(14, 0.3, seed=12)
        vc = brute_force_minimum_vertex_cover(g)
        assert is_vertex_cover(g, vc)
        assert len(vc) == 14 - len(exact_maximum_independent_set(g))

    def test_size_guard(self):
        with pytest.raises(ValueError):
            exact_maximum_independent_set(Graph(60))

    def test_weighted_brute_force(self):
        wg = WeightedGraph(4, [(0, 1, 5.0), (1, 2, 7.0), (2, 3, 5.0)])
        edges, weight = brute_force_maximum_weight_matching(wg)
        assert weight == pytest.approx(10.0)
        assert edges == {(0, 1), (2, 3)}
