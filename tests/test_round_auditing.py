"""Round-accounting audit tests.

Every round an algorithm reports must be traceable: each model advances
its round counter only through ``charge_rounds``, so a spy on that one
method sees every ``(count, reason)`` charge of a run.  The charges sum to
the result's round count, and every charge carries a human-readable
reason.  This is the property that makes the experiment tables
trustworthy.
"""

import numpy as np
import pytest

import repro.api.adapters
import repro.core.integral
import repro.core.vertex_cover
from repro.api import solve
from repro.congested_clique.matching import congested_clique_fractional_matching
from repro.congested_clique.mis import congested_clique_mis
from repro.congested_clique.model import CongestedClique
from repro.core.matching_mpc import mpc_fractional_matching
from repro.core.mis_mpc import mis_mpc
from repro.dist import DistExecutor, MultiprocessTransport
from repro.graph.generators import gnp_random_graph
from repro.mpc.cluster import Message, MPCCluster
from tests.compressed_stage import (
    compressed_stage_graph,
    reaches_compressed_stage,
)


def spy_on_charges(monkeypatch, model, forward=True):
    """Record every ``model.charge_rounds(count, reason)`` call.

    With ``forward`` the original method still runs; without it the spy
    swallows the charge, so any round the counter gains came from
    somewhere else.
    """
    charges = []
    original = model.charge_rounds

    def spy(self, count, reason):
        charges.append((count, reason))
        if forward:
            original(self, count, reason)

    monkeypatch.setattr(model, "charge_rounds", spy)
    return charges


@pytest.fixture
def mpc_charges(monkeypatch):
    return spy_on_charges(monkeypatch, MPCCluster)


@pytest.fixture
def clique_charges(monkeypatch):
    return spy_on_charges(monkeypatch, CongestedClique)


TAIL_SHIP = "matching: direct tail to leader"
MAX_DEGREE = "matching: max-degree aggregation"
TAIL_BROADCAST = "matching: direct tail freezes"


def reasons(charges):
    return [reason for _, reason in charges]


class TestMISRoundAudit:
    def test_charges_sum_to_rounds(self, mpc_charges):
        g = gnp_random_graph(400, 0.3, seed=1)
        result = mis_mpc(g, seed=1)
        assert sum(count for count, _ in mpc_charges) == result.rounds

    def test_every_charge_has_reason(self, mpc_charges):
        g = gnp_random_graph(200, 0.2, seed=2)
        mis_mpc(g, seed=2)
        assert mpc_charges
        assert all(isinstance(r, str) and r for r in reasons(mpc_charges))

    def test_phases_recorded(self, mpc_charges):
        g = gnp_random_graph(512, 0.5, seed=3)
        result = mis_mpc(g, seed=3)
        shipped = [
            r for r in reasons(mpc_charges) if r.startswith("mis: ship prefix phase ")
        ]
        assert shipped == [
            f"mis: ship prefix phase {i}" for i in range(result.prefix_phases)
        ]
        assert reasons(mpc_charges).count("sparsified-mis: ball gathering") == 1


class TestMatchingRoundAudit:
    def test_charges_sum_to_rounds(self, mpc_charges):
        g = gnp_random_graph(300, 0.06, seed=4)
        result = mpc_fractional_matching(g, seed=4)
        assert sum(count for count, _ in mpc_charges) == result.rounds

    def test_phase_events_match_result(self, mpc_charges):
        g = compressed_stage_graph("dense")
        result = mpc_fractional_matching(g, seed=5)
        assert result.phases > 0
        aggregations = [
            r for r in reasons(mpc_charges) if r.endswith(" load aggregation")
        ]
        assert aggregations == [
            f"matching: phase {p} load aggregation"
            for p in range(1, result.phases + 1)
        ]

    def test_direct_iterations_charged_individually(self, mpc_charges):
        # Dense enough that the direct tail never fits machine 0.
        g = gnp_random_graph(300, 0.06, seed=6)
        result = mpc_fractional_matching(g, seed=6)
        direct = reasons(mpc_charges).count("matching: direct Central-Rand iteration")
        assert direct == result.direct_iterations
        assert TAIL_SHIP not in reasons(mpc_charges)
        # Each iteration meters its freeze notices: the phase-free run's
        # words are all the tail's.
        assert result.phases == 0
        assert result.total_comm_words > 0

    def test_unfit_tail_is_one_pool_step_charged_per_iteration(
        self, mpc_charges
    ):
        # The same graph: on a 2-worker pool the tail runs as one task,
        # and the charges equal the executor=None run's.
        g = gnp_random_graph(300, 0.06, seed=6)
        runs = []
        executor = DistExecutor(MultiprocessTransport(2), kind="parallel")
        try:
            for candidate in (None, executor):
                del mpc_charges[:]
                result = mpc_fractional_matching(g, seed=6, executor=candidate)
                runs.append(
                    (
                        result.rounds,
                        reasons(mpc_charges).count(
                            "matching: direct Central-Rand iteration"
                        ),
                        result.direct_iterations,
                        result.total_comm_words,
                        result.freeze_at.tobytes(),
                    )
                )
            walls = {w["phase"]: w["steps"] for w in executor.phase_walls()}
        finally:
            executor.close()
        assert TAIL_SHIP not in reasons(mpc_charges)
        assert runs[0] == runs[1]
        assert runs[0][1] == runs[0][2] > 0
        assert walls["direct-simulation"] == 1

    def test_gathered_tail_charges_one_ship_and_one_broadcast(
        self, monkeypatch, mpc_charges
    ):
        g = gnp_random_graph(300, 0.02, seed=3)
        result = mpc_fractional_matching(g, seed=3)
        charged = reasons(mpc_charges)
        assert charged.count(TAIL_SHIP) == 1
        assert charged.count(TAIL_BROADCAST) == 1
        assert "matching: direct Central-Rand iteration" not in charged
        assert sum(count for count, _ in mpc_charges) == result.rounds
        clique_rounds = congested_clique_fractional_matching(g, seed=3).rounds

        # The same iterations are simulated as on the per-iteration path,
        # so the congested-clique charge built on them does not move.
        monkeypatch.setattr(MPCCluster, "fits_leader", lambda *args: False)
        del mpc_charges[:]
        per_iteration = mpc_fractional_matching(g, seed=3)
        assert per_iteration.direct_iterations == result.direct_iterations > 0
        assert reasons(mpc_charges).count(
            "matching: direct Central-Rand iteration"
        ) == result.direct_iterations
        assert result.rounds == (
            per_iteration.rounds - result.direct_iterations + 2
        )
        assert congested_clique_fractional_matching(g, seed=3).rounds == (
            clique_rounds
        )


class TestStartRuleAudit:
    """One charged aggregation measures Δ, where the schedule starts."""

    MATCHING_FAMILY = (
        "fractional_matching",
        "vertex_cover",
        "matching",
        "one_plus_eps_matching",
    )

    def test_low_degree_input_runs_no_phase(self, mpc_charges):
        g = gnp_random_graph(300, 0.06, seed=4)
        assert not reaches_compressed_stage(g)
        result = mpc_fractional_matching(g, seed=4)
        charged = reasons(mpc_charges)
        assert result.phases == 0
        assert charged.count(MAX_DEGREE) == 1
        assert charged[0] == MAX_DEGREE
        assert not [r for r in charged if r.startswith("matching: phase ")]
        assert sum(count for count, _ in mpc_charges) == result.rounds

    def test_edgeless_input_charges_nothing(self, mpc_charges):
        result = mpc_fractional_matching(gnp_random_graph(20, 0.0, seed=1))
        assert result.rounds == 0
        assert mpc_charges == []

    @pytest.mark.parametrize("kind", ["sparse", "compressed"])
    @pytest.mark.parametrize("task", MATCHING_FAMILY)
    def test_every_call_charges_one_aggregation(
        self, monkeypatch, mpc_charges, task, kind
    ):
        # Each MPC-Simulation call of a matching-family pair charges Δ's
        # aggregation once, and its charges sum to its rounds.  For the
        # fractional pairs those are the report's rounds; the integral
        # pairs add the rounds their rounding, cleanup and augmentation
        # count outside a cluster.
        calls = []

        def recorded(*args, **kwargs):
            first = len(mpc_charges)
            result = mpc_fractional_matching(*args, **kwargs)
            calls.append((mpc_charges[first:], result.rounds))
            return result

        for module in (
            repro.api.adapters,
            repro.core.integral,
            repro.core.vertex_cover,
        ):
            monkeypatch.setattr(module, "mpc_fractional_matching", recorded)
        graph = (
            gnp_random_graph(300, 0.06, seed=4)
            if kind == "sparse"
            else compressed_stage_graph()
        )
        report = solve(task, graph, backend="mpc", seed=4)
        assert calls
        for charges, rounds in calls:
            assert reasons(charges).count(MAX_DEGREE) == 1
            assert sum(count for count, _ in charges) == rounds
        metered = sum(count for count, _ in mpc_charges)
        assert metered == sum(rounds for _, rounds in calls)
        if task in ("fractional_matching", "vertex_cover"):
            assert metered == report.rounds
        else:
            assert metered < report.rounds


class TestCongestedCliqueRoundAudit:
    def test_mis_charges_sum_to_rounds(self, clique_charges):
        g = gnp_random_graph(300, 0.2, seed=7)
        result = congested_clique_mis(g, seed=7)
        assert result.prefix_phases > 0
        assert sum(count for count, _ in clique_charges) == result.rounds
        assert all(isinstance(r, str) and r for r in reasons(clique_charges))

    def test_fractional_matching_charges_sum_to_rounds(self, clique_charges):
        g = compressed_stage_graph("dense")
        result = congested_clique_fractional_matching(g, seed=8)
        assert result.phases > 0
        assert sum(count for count, _ in clique_charges) == result.rounds
        assert all(isinstance(r, str) and r for r in reasons(clique_charges))


class TestSingleChokePoint:
    """The primitives spend rounds only through ``charge_rounds``: with the
    charge swallowed, the counter must not move at all."""

    def test_mpc_primitives(self, monkeypatch):
        charges = spy_on_charges(monkeypatch, MPCCluster, forward=False)
        cluster = MPCCluster(2, words_per_machine=10)
        cluster.exchange({0: [Message(1, 2, "x")]}, context="swap")
        cluster.ship_to_machine(1, "key", None, words=3, context="ship")
        cluster.broadcast(4, context="tell")
        cluster.spread_exchange(5, context="spread")
        assert charges == [(1, "swap"), (1, "ship"), (1, "tell"), (1, "spread")]
        assert cluster.rounds == 0

    def test_clique_primitives(self, monkeypatch):
        charges = spy_on_charges(monkeypatch, CongestedClique, forward=False)
        clique = CongestedClique(3)
        clique.round_of_messages([(0, 1, 1)], context="scalar")
        clique.round_of_messages_array(
            np.array([0, 1]), np.array([2, 2]), context="array"
        )
        clique.broadcast_round(context="tell")
        assert charges == [(1, "scalar"), (1, "array"), (1, "tell")]
        assert clique.rounds == 0
