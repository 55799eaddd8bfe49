"""Unit tests for the sparsified (compressed local process) MIS finish."""

import math

import numpy as np
import pytest

from repro.api import solve
from repro.core.sparsified_mis import STRATEGIES, sparsified_mis
from repro.graph.generators import cycle_graph, gnp_random_graph, star_graph
from repro.graph.graph import Graph
from repro.graph.properties import is_independent_set, is_maximal_independent_set
from repro.mpc.cluster import MPCCluster


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestSparsifiedMIS:
    def test_maximal_on_sparse_graph(self, strategy):
        g = gnp_random_graph(200, 0.02, seed=4)
        outcome = sparsified_mis(g, seed=4, strategy=strategy)
        assert is_maximal_independent_set(g, outcome.mis)

    def test_cycle(self, strategy):
        g = cycle_graph(9)
        outcome = sparsified_mis(g, seed=5, strategy=strategy)
        assert is_maximal_independent_set(g, outcome.mis)

    def test_one_round_winners_are_independent(self, strategy):
        # A vanishing rounds factor simulates a single round, so most of
        # the set comes from that round's winners.
        g = gnp_random_graph(60, 0.2, seed=1)
        outcome = sparsified_mis(g, seed=1, rounds_factor=1e-9, strategy=strategy)
        assert outcome.luby_rounds_simulated == 1
        assert is_independent_set(g, outcome.mis)

    def test_isolated_vertices_always_win(self, strategy):
        g = Graph(5, [(0, 1)])
        outcome = sparsified_mis(g, seed=2, strategy=strategy)
        assert {2, 3, 4} <= set(outcome.mis.tolist())
        assert is_maximal_independent_set(g, outcome.mis)

    def test_single_active_vertex_wins(self, strategy):
        g = star_graph(3)
        outcome = sparsified_mis(g, active={0}, seed=3, strategy=strategy)
        assert outcome.mis.tolist() == [0]

    def test_result_is_ascending_int64(self, strategy):
        g = gnp_random_graph(80, 0.1, seed=9)
        outcome = sparsified_mis(g, seed=3, strategy=strategy)
        assert outcome.mis.dtype == np.int64
        assert np.all(np.diff(outcome.mis) > 0)

    def test_rounds_are_logarithmic_in_local_rounds(self, strategy):
        g = gnp_random_graph(500, 0.01, seed=6)
        outcome = sparsified_mis(g, seed=6, strategy=strategy)
        budget = math.ceil(2.0 * math.log2(g.num_edges + 2))
        # Compressed: the charge is logarithmic in the local-round budget.
        assert outcome.luby_rounds_simulated <= budget
        assert outcome.rounds_charged == math.ceil(math.log2(budget)) + 1
        assert outcome.rounds_charged < budget

    def test_cluster_accounting(self, strategy):
        g = gnp_random_graph(100, 0.05, seed=7)
        cluster = MPCCluster(2, words_per_machine=16 * 100)
        outcome = sparsified_mis(g, seed=7, cluster=cluster, strategy=strategy)
        assert cluster.rounds == outcome.rounds_charged
        assert is_maximal_independent_set(g, outcome.mis)

    @pytest.mark.parametrize("form", ["set", "ids", "mask"])
    def test_respects_active_subset(self, strategy, form):
        g = Graph(4, [(0, 1), (2, 3)])
        active = {
            "set": {2, 3},
            "ids": np.array([2, 3]),
            "mask": np.array([False, False, True, True]),
        }[form]
        outcome = sparsified_mis(g, active=active, seed=8, strategy=strategy)
        assert len(outcome.mis) == 1
        assert set(outcome.mis.tolist()) <= {2, 3}

    def test_determinism(self, strategy):
        g = gnp_random_graph(80, 0.1, seed=9)
        a = sparsified_mis(g, seed=3, strategy=strategy).mis
        b = sparsified_mis(g, seed=3, strategy=strategy).mis
        assert a.tolist() == b.tolist()


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="strategy"):
        sparsified_mis(Graph(3), strategy="magic")


def test_mask_length_checked():
    with pytest.raises(ValueError, match="length"):
        sparsified_mis(Graph(3), active=np.ones(2, dtype=bool))


def test_leftover_over_the_leader_budget_runs_more_rounds(monkeypatch):
    """G(10, 0.95, seed=0) at seed 12: the ghaffari leftover after the
    scheduled rounds would need 86 of machine 0's 80 words, so the process
    runs charged extra rounds until it fits, and the MIS certifies."""
    charges = []
    original = MPCCluster.charge_rounds

    def spy(self, count, reason):
        charges.append((count, reason))
        original(self, count, reason)

    monkeypatch.setattr(MPCCluster, "charge_rounds", spy)
    report = solve(
        "mis",
        gnp_random_graph(10, 0.95, seed=0),
        backend="mpc",
        seed=12,
        config={"sparse_strategy": "ghaffari"},
        verify=True,
    )
    assert report.valid and report.verified
    extra = [c for c, reason in charges if "extra round to fit leader" in reason]
    assert extra and all(count == 1 for count in extra)
    assert sum(count for count, _ in charges) == report.rounds


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_leftover_fits_the_leader_it_is_shipped_to(strategy):
    g = gnp_random_graph(40, 0.5, seed=2)
    cluster = MPCCluster(2, words_per_machine=60)
    outcome = sparsified_mis(
        g, seed=1, cluster=cluster, rounds_factor=0.1, strategy=strategy
    )
    assert 2 * outcome.leftover_edges <= cluster.words_per_machine
    assert cluster.rounds == outcome.rounds_charged
    assert is_maximal_independent_set(g, outcome.mis)
