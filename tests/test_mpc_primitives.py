"""Unit tests for shared MPC communication primitives."""

import pytest

from repro.govern import governed_broadcast
from repro.graph.generators import gnp_random_graph
from repro.mpc.cluster import MPCCluster
from repro.mpc.primitives import (
    assignment_map,
    gather_edges_to_leader,
    partition_vertices,
    scatter_induced_subgraphs,
)
from repro.mpc.words import id_words


class TestPartition:
    def test_partition_covers_all_vertices(self):
        parts = partition_vertices(range(100), 7, seed=1)
        assert len(parts) == 7
        assert sorted(v for part in parts for v in part) == list(range(100))

    def test_partition_deterministic(self):
        assert partition_vertices(range(50), 5, seed=2) == partition_vertices(
            range(50), 5, seed=2
        )

    def test_partition_roughly_balanced(self):
        parts = partition_vertices(range(10_000), 10, seed=3)
        sizes = [len(p) for p in parts]
        assert max(sizes) < 2 * min(sizes)

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            partition_vertices(range(5), 0)

    def test_assignment_map_inverts(self):
        parts = [[0, 2], [1, 3]]
        owner = assignment_map(parts)
        assert owner == {0: 0, 2: 0, 1: 1, 3: 1}


class TestScatter:
    def test_scatter_counts_rounds_and_fits(self):
        graph = gnp_random_graph(60, 0.2, seed=4)
        cluster = MPCCluster(4, words_per_machine=8 * 60)
        parts = partition_vertices(graph.vertices(), 4, seed=4)
        induced = scatter_induced_subgraphs(cluster, graph, parts)
        assert cluster.rounds == 1
        assert len(induced) == 4
        total = sum(len(edges) for edges in induced)
        assert total <= graph.num_edges

    def test_gather_to_leader(self):
        cluster = MPCCluster(2, words_per_machine=100)
        gather_edges_to_leader(cluster, [(0, 1), (2, 3)])
        assert cluster.machine(0).load("gathered_edges") == [(0, 1), (2, 3)]
        assert cluster.rounds == 1

    def test_broadcast_vertex_set(self):
        cluster = MPCCluster(2, words_per_machine=100)
        vertex_set = {1, 2, 3}
        governed_broadcast(cluster, id_words(len(vertex_set)), "broadcast-set")
        assert cluster.rounds == 1
