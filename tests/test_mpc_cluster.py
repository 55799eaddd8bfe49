"""Unit tests for the MPC substrate: machines, cluster, memory accounting."""

import pytest

from repro.mpc.cluster import Message, MPCCluster
from repro.mpc.errors import MemoryExceededError, ProtocolError
from repro.graph.graph import Graph
from repro.mpc.machine import Machine
from repro.mpc.spec import MIN_WORDS_PER_MACHINE, ClusterSpec, paper_memory_words
from repro.mpc.words import (
    WORDS_PER_EDGE,
    edge_list_words,
    edge_words,
    id_words,
    weighted_edge_words,
)


class TestWords:
    def test_units(self):
        assert id_words(3) == 3
        assert edge_words(3) == 6
        assert edge_list_words([(0, 1), (2, 3)]) == 4
        assert weighted_edge_words(2) == 6


class TestPaperMemoryWords:
    def test_linear_regime(self):
        assert paper_memory_words(1000) == 8000

    def test_floor(self):
        assert paper_memory_words(3) == MIN_WORDS_PER_MACHINE
        assert paper_memory_words(0) == MIN_WORDS_PER_MACHINE
        assert paper_memory_words(3, min_words=1) == 24

    def test_sublinear_regime(self):
        assert paper_memory_words(10**6, alpha=0.5, memory_factor=1.0) == 1000

    def test_rounds_up(self):
        assert paper_memory_words(2, alpha=0.5, memory_factor=1.0, min_words=1) == 2
        assert paper_memory_words(10, memory_factor=6.55, min_words=1) == 66

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            paper_memory_words(100, alpha=alpha)

    @pytest.mark.parametrize("factor", [0.0, -1.0])
    def test_nonpositive_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="memory_factor"):
            paper_memory_words(100, memory_factor=factor)

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_agrees_with_cluster_sizing(self, n):
        """The budget the auditor checks is the one the cluster is built with."""
        spec = ClusterSpec.from_graph(Graph(n))
        assert paper_memory_words(n) == spec.words_per_machine


class TestMachine:
    def test_store_load_release(self):
        m = Machine(0, capacity_words=10)
        m.store("a", [1, 2], words=4)
        assert m.load("a") == [1, 2]
        assert m.used_words == 4
        m.release("a")
        assert m.used_words == 0
        assert m.peak_words == 4

    def test_capacity_enforced(self):
        m = Machine(0, capacity_words=10)
        with pytest.raises(MemoryExceededError) as excinfo:
            m.store("big", None, words=11, context="test-step")
        assert excinfo.value.machine_id == 0
        assert "test-step" in str(excinfo.value)

    def test_replacement_releases_first(self):
        m = Machine(0, capacity_words=10)
        m.store("a", None, words=8)
        m.store("a", None, words=9)  # would overflow if not released first
        assert m.used_words == 9

    def test_clear(self):
        m = Machine(0, capacity_words=10)
        m.store("a", None, words=5)
        m.clear()
        assert m.used_words == 0
        assert not m.has("a")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Machine(0, capacity_words=0)

    def test_negative_words_rejected(self):
        m = Machine(0, capacity_words=10)
        with pytest.raises(ValueError):
            m.store("a", None, words=-1)


class TestCluster:
    def test_round_counting(self):
        cluster = MPCCluster(4, words_per_machine=100)
        assert cluster.rounds == 0
        cluster.charge_rounds(2, "setup")
        assert cluster.rounds == 2

    def test_exchange_delivers_and_counts(self):
        cluster = MPCCluster(3, words_per_machine=100)
        inboxes = cluster.exchange(
            {0: [Message(destination=2, words=10, payload="hi")]}
        )
        assert cluster.rounds == 1
        assert inboxes[2][0].payload == "hi"

    def test_exchange_outbox_limit(self):
        cluster = MPCCluster(2, words_per_machine=10)
        with pytest.raises(MemoryExceededError):
            cluster.exchange({0: [Message(destination=1, words=11, payload=None)]})

    def test_exchange_inbox_limit(self):
        cluster = MPCCluster(3, words_per_machine=10)
        with pytest.raises(MemoryExceededError):
            cluster.exchange(
                {
                    0: [Message(destination=2, words=8, payload=None)],
                    1: [Message(destination=2, words=8, payload=None)],
                }
            )

    def test_invalid_machine_id(self):
        cluster = MPCCluster(2, words_per_machine=10)
        with pytest.raises(ProtocolError):
            cluster.machine(2)
        with pytest.raises(ProtocolError):
            cluster.exchange({0: [Message(destination=5, words=1, payload=None)]})

    def test_ship_to_machine(self):
        cluster = MPCCluster(2, words_per_machine=10)
        cluster.ship_to_machine(1, "data", [1, 2, 3], words=6)
        assert cluster.rounds == 1
        assert cluster.machine(1).load("data") == [1, 2, 3]

    def test_broadcast_validates_size(self):
        cluster = MPCCluster(2, words_per_machine=10)
        cluster.broadcast(10)
        with pytest.raises(MemoryExceededError):
            cluster.broadcast(11)

    def test_peak_words(self):
        cluster = MPCCluster(2, words_per_machine=10)
        cluster.ship_to_machine(0, "a", None, words=7)
        cluster.release_all()
        assert cluster.peak_words() == 7

    def test_charges_carry_reasons(self, monkeypatch):
        reasons = []
        charge_rounds = MPCCluster.charge_rounds

        def spy(self, count, reason):
            reasons.append(reason)
            charge_rounds(self, count, reason)

        monkeypatch.setattr(MPCCluster, "charge_rounds", spy)
        cluster = MPCCluster(2, words_per_machine=10)
        cluster.charge_rounds(1, "alpha")
        cluster.broadcast(5, context="beta")
        assert reasons == ["alpha", "beta"]
        assert cluster.rounds == 2

    def test_negative_round_charge_rejected(self):
        cluster = MPCCluster(1, words_per_machine=10)
        with pytest.raises(ValueError):
            cluster.charge_rounds(-1, "x")

    def test_zero_machines_rejected(self):
        with pytest.raises(ValueError):
            MPCCluster(0, words_per_machine=10)
