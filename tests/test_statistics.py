"""Unit tests for the load governor's degree summary."""

import json
from dataclasses import fields

import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.graph.statistics import LoadSummary, load_summary
from repro.ooc import load_csr, save_csr

GENERATED = {
    "gnp": lambda: gnp_random_graph(120, 0.05, seed=1),
    "ba": lambda: barabasi_albert(150, 3, seed=2),
    "grid": lambda: grid_graph(8, 9),
}


class TestFixedShapes:
    def test_regular_graph(self):
        summary = load_summary(cycle_graph(10))
        assert summary.num_vertices == 10
        assert summary.num_edges == 10
        assert summary.mean_degree == 2.0
        assert summary.max_degree == 2
        assert summary.p50_degree == summary.p90_degree == summary.p99_degree == 2
        assert summary.skew_ratio == 1.0
        # 1 + 2 + 2 * (40 / 20): a vertex, its two neighbors, their four.
        assert summary.estimated_ball_size == 7.0

    def test_star(self):
        summary = load_summary(star_graph(9))
        assert summary.num_vertices == 10
        assert summary.num_edges == 9
        assert summary.max_degree == 9
        assert summary.p50_degree == 1
        assert summary.p90_degree == 9
        assert summary.skew_ratio == pytest.approx(5.0)

    def test_empty(self):
        assert load_summary(Graph(0)) == LoadSummary(0, 0, 0.0, 0, 0, 0, 0, 0.0, 0.0)

    def test_edgeless(self):
        summary = load_summary(Graph(5))
        assert summary.mean_degree == 0.0
        assert summary.max_degree == 0
        assert summary.skew_ratio == 0.0
        assert summary.estimated_ball_size == 1.0

    def test_isolated_vertices_lower_the_mean(self):
        summary = load_summary(Graph(5, [(0, 1)]))
        assert summary.mean_degree == pytest.approx(0.4)
        assert summary.p50_degree == 0
        assert summary.p90_degree == 1
        assert summary.skew_ratio == pytest.approx(2.5)
        assert summary.estimated_ball_size == pytest.approx(1.8)

    def test_ball_estimate_uses_neighbor_degree(self):
        # Degrees 1, 2 x 8, 1: mean 1.8, E[d^2]/E[d] = 34/18.
        summary = load_summary(path_graph(10))
        assert summary.estimated_ball_size == pytest.approx(1 + 1.8 + 1.8 * 34 / 18)

    @pytest.mark.parametrize("graph", [star_graph(9), complete_graph(6)])
    def test_ball_estimate_capped_at_n(self, graph):
        summary = load_summary(graph)
        assert summary.estimated_ball_size == float(graph.num_vertices)

    def test_to_dict_is_json_ready(self):
        summary = load_summary(star_graph(9))
        record = summary.to_dict()
        assert list(record) == [f.name for f in fields(LoadSummary)]
        assert LoadSummary(**json.loads(json.dumps(record))) == summary


@pytest.mark.parametrize("name", sorted(GENERATED))
class TestGenerated:
    def test_counts_match_the_graph(self, name):
        graph = GENERATED[name]()
        summary = load_summary(graph)
        assert summary.num_vertices == graph.num_vertices
        assert summary.num_edges == graph.num_edges
        assert summary.max_degree == graph.max_degree()
        assert summary.mean_degree == pytest.approx(
            2 * graph.num_edges / graph.num_vertices
        )

    def test_percentiles_ordered(self, name):
        summary = load_summary(GENERATED[name]())
        assert summary.p50_degree <= summary.p90_degree <= summary.p99_degree
        assert summary.p99_degree <= summary.max_degree
        assert summary.mean_degree <= summary.max_degree
        assert 1.0 <= summary.estimated_ball_size <= summary.num_vertices

    @pytest.mark.parametrize("representation", ["csr", "mmap"])
    def test_representation_independent(self, name, representation, tmp_path):
        graph = GENERATED[name]()
        csr = CSRGraph.from_graph(graph)
        if representation == "mmap":
            csr = load_csr(save_csr(csr, tmp_path / "graph"))
        assert load_summary(csr) == load_summary(graph)
