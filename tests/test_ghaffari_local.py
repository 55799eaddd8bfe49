"""Unit tests for Ghaffari's desire-level process in the sparsified finish."""

import numpy as np
import pytest

from repro.core.config import MISConfig
from repro.core.mis_mpc import mis_mpc
from repro.core.sparsified_mis import (
    DESIRE_CAP,
    INITIAL_DESIRE,
    GhaffariDesires,
    sparsified_mis,
)
from repro.graph.csr import as_csr
from repro.graph.generators import cycle_graph, gnp_random_graph, star_graph
from repro.graph.graph import Graph
from repro.graph.properties import is_independent_set, is_maximal_independent_set
from repro.utils import counter_rng


def _one_round(process, graph, round_index=0, key=1):
    """Run one round over every vertex; returns the winner ids."""
    csr = as_csr(graph)
    n = csr.num_vertices
    active = np.ones(n, dtype=bool)
    draw = counter_rng.uniform01(key, np.arange(n), round_index)
    blocks = [(csr.src, np.asarray(csr.indices))]
    return np.flatnonzero(process.winners(draw, active, blocks))


class TestGhaffariRound:
    def test_winners_are_independent(self):
        g = gnp_random_graph(60, 0.2, seed=1)
        winners = _one_round(GhaffariDesires(60), g)
        assert is_independent_set(g, winners)

    def test_desire_levels_update(self):
        """High effective degree halves desire; low doubles it (capped)."""
        process = GhaffariDesires(11)
        _one_round(process, star_graph(10))
        # Center sees effective degree 10 * 0.5 = 5 >= 2: halved.
        assert process.desire[0] == INITIAL_DESIRE / 2
        # A leaf sees 0.5 < 2: doubled but capped at 1/2.
        assert process.desire[1] == DESIRE_CAP

    def test_desire_never_exceeds_cap(self):
        process = GhaffariDesires(8)
        for round_index in range(20):
            _one_round(process, cycle_graph(8), round_index)
        assert np.all(process.desire <= DESIRE_CAP)


class TestGhaffariProcess:
    def test_clears_sparse_graph(self):
        g = gnp_random_graph(150, 0.03, seed=4)
        outcome = sparsified_mis(g, seed=4, strategy="ghaffari", rounds_factor=20)
        assert outcome.leftover_edges == 0  # the process decided everything
        assert is_maximal_independent_set(g, outcome.mis)

    def test_respects_round_budget(self):
        g = gnp_random_graph(100, 0.1, seed=5)
        outcome = sparsified_mis(g, seed=5, strategy="ghaffari", rounds_factor=0.3)
        assert outcome.luby_rounds_simulated <= 3
        assert is_maximal_independent_set(g, outcome.mis)


class TestStrategyIntegration:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            sparsified_mis(Graph(3), strategy="magic")

    def test_mis_mpc_with_ghaffari_strategy(self):
        g = gnp_random_graph(300, 0.3, seed=7)
        config = MISConfig(sparse_strategy="ghaffari")
        result = mis_mpc(g, seed=7, config=config)
        assert result.prefix_phases > 0
        assert is_maximal_independent_set(g, result.mis)

    def test_config_validates_strategy(self):
        with pytest.raises(ValueError):
            MISConfig(sparse_strategy="magic")
