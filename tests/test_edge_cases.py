"""Edge-case tests across the public API: tiny inputs, degenerate
parameters, and override hooks that the main suites don't reach."""

import numpy as np
import pytest

from repro.core.central import run_freezing_process
from repro.core.config import MatchingConfig, MISConfig
from repro.core.matching_mpc import mpc_fractional_matching
from repro.core.mis_mpc import mis_mpc
from repro.core.sparsified_mis import sparsified_mis
from repro.core.thresholds import ThresholdOracle, fixed_oracle
from repro.graph.generators import gnp_random_graph, path_graph
from repro.graph.graph import Graph
from repro.graph.properties import (
    is_maximal_independent_set,
    is_vertex_cover,
)
from repro.mpc.engine import PregelEngine


class TestTinyGraphs:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_mis_tiny(self, n):
        g = Graph(n)
        result = mis_mpc(g, seed=1)
        assert result.mis.tolist() == list(range(n))

    def test_single_edge_everything(self):
        g = Graph(2, [(0, 1)])
        mis = mis_mpc(g, seed=1)
        assert len(mis.mis) == 1
        matching = mpc_fractional_matching(g, seed=1)
        assert is_vertex_cover(g, matching.vertex_cover)

    def test_two_disconnected_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        result = mis_mpc(g, seed=2)
        assert len(result.mis) == 2
        assert is_maximal_independent_set(g, result.mis)


class TestParameterOverrides:
    def test_matching_with_explicit_oracle(self):
        """Passing an oracle must override the internal one — the coupling
        hook the concentration experiment depends on."""
        g = gnp_random_graph(100, 0.08, seed=3)
        oracle = fixed_oracle(0.8)
        a = mpc_fractional_matching(g, seed=3, oracle=oracle)
        b = mpc_fractional_matching(g, seed=3, oracle=oracle)
        assert np.array_equal(a.freeze_at, b.freeze_at)

    def test_freezing_process_with_custom_interval(self):
        g = gnp_random_graph(60, 0.1, seed=4)
        oracle = ThresholdOracle(0.5, 0.7, seed=4)
        result = run_freezing_process(
            graph=g,
            epsilon=0.1,
            oracle=oracle,
            initial_weight=1.0 / 60,
            max_iterations=10_000,
        )
        assert is_vertex_cover(g, result.vertex_cover)

    def test_sparsified_rounds_factor(self):
        g = gnp_random_graph(100, 0.05, seed=5)
        fast = sparsified_mis(g, seed=5, rounds_factor=0.5)
        slow = sparsified_mis(g, seed=5, rounds_factor=4.0)
        assert is_maximal_independent_set(g, fast.mis)
        assert is_maximal_independent_set(g, slow.mis)
        assert slow.luby_rounds_simulated >= fast.luby_rounds_simulated

    def test_mis_custom_schedule_constants(self):
        g = gnp_random_graph(256, 0.5, seed=6)
        config = MISConfig(alpha=0.6, sparse_degree_exponent=1.5)
        result = mis_mpc(g, seed=6, config=config)
        assert is_maximal_independent_set(g, result.mis)

    def test_matching_aggressive_epsilon(self):
        g = gnp_random_graph(128, 0.08, seed=7)
        config = MatchingConfig(epsilon=0.49)
        result = mpc_fractional_matching(g, config=config, seed=7)
        assert result.matching.is_valid()
        assert is_vertex_cover(g, result.vertex_cover)

    def test_matching_tight_epsilon(self):
        g = gnp_random_graph(96, 0.08, seed=8)
        config = MatchingConfig(epsilon=0.02)
        result = mpc_fractional_matching(g, config=config, seed=8)
        assert result.matching.is_valid()


class TestEngineConfiguration:
    def test_explicit_machine_count(self):
        g = path_graph(20)
        engine = PregelEngine(g, num_machines=3, seed=9)
        assert engine.cluster.num_machines == 3

    def test_single_vertex_graph(self):
        g = Graph(1)
        engine = PregelEngine(g, seed=10)

        def compute(ctx, messages):
            ctx.state["ran"] = True
            ctx.vote_to_halt()

        result = engine.run(compute)
        assert result.states[0]["ran"]

    def test_empty_graph_runs(self):
        engine = PregelEngine(Graph(0), seed=11)
        result = engine.run(lambda ctx, msgs: ctx.vote_to_halt())
        assert result.supersteps == 0
