"""Failure-injection tests: the substrate must refuse, loudly, when an
algorithm's resource claims would be violated — silence is the bug."""

import pytest

from repro.core.config import MatchingConfig
from repro.core.matching_mpc import mpc_fractional_matching
from repro.graph.generators import complete_graph, gnp_random_graph
from repro.mpc.cluster import Message, MPCCluster
from repro.mpc.errors import MemoryExceededError, ProtocolError
from tests.compressed_stage import compressed_stage_graph


class TestMemoryEnforcement:
    def test_matching_with_sublinear_memory_raises(self):
        """The O(n/polylog) regime needs the adjusted algorithm of
        [CŁM+18]; the plain simulation must refuse rather than silently
        overfill machines."""
        g = gnp_random_graph(512, 0.06, seed=1)
        config = MatchingConfig(memory_factor=0.1)
        with pytest.raises(MemoryExceededError) as excinfo:
            mpc_fractional_matching(g, config=config, seed=1)
        assert excinfo.value.capacity_words == 64 or excinfo.value.capacity_words == int(0.1 * 512)

    def test_error_carries_context(self):
        g = gnp_random_graph(512, 0.06, seed=2)
        with pytest.raises(MemoryExceededError) as excinfo:
            mpc_fractional_matching(
                g, config=MatchingConfig(memory_factor=0.1), seed=2
            )
        assert "matching" in excinfo.value.context

    @pytest.mark.parametrize(
        "kind, stage",
        [("sparse", "direct tail residual"), ("dense", "phase 1 scatter")],
    )
    def test_refused_where_the_input_first_meets_the_machines(self, kind, stage):
        # Δ under the floor: no phase runs, and the per-iteration direct
        # tail's even share of the residual overflows S.  Δ over the
        # floor: the first compressed phase's scatter overflows S.
        g = (
            gnp_random_graph(512, 0.06, seed=1)
            if kind == "sparse"
            else compressed_stage_graph("dense")
        )
        with pytest.raises(MemoryExceededError) as excinfo:
            mpc_fractional_matching(
                g, config=MatchingConfig(memory_factor=0.1), seed=1
            )
        assert excinfo.value.context.startswith(f"matching: {stage}")
        assert excinfo.value.capacity_words == max(64, int(0.1 * g.num_vertices))

    def test_generous_memory_never_raises(self):
        g = gnp_random_graph(512, 0.06, seed=3)
        result = mpc_fractional_matching(
            g, config=MatchingConfig(memory_factor=16), seed=3
        )
        assert result.weight > 0

    def test_dense_graph_within_budget(self):
        """Even K_n stays within O(n) per machine (Lemma 4.7 at work)."""
        g = complete_graph(128)
        result = mpc_fractional_matching(
            g, config=MatchingConfig(memory_factor=8), seed=4
        )
        assert result.max_machine_edges * 2 <= 8 * 128


class TestProtocolEnforcement:
    def test_unknown_destination(self):
        cluster = MPCCluster(2, words_per_machine=100)
        with pytest.raises(ProtocolError):
            cluster.exchange({0: [Message(destination=7, words=1, payload=None)]})

    def test_oversized_single_message(self):
        cluster = MPCCluster(2, words_per_machine=100)
        with pytest.raises(MemoryExceededError):
            cluster.ship_to_machine(0, "bulk", None, words=101)

    def test_inbox_congestion_detected_across_senders(self):
        cluster = MPCCluster(4, words_per_machine=100)
        outboxes = {
            sender: [Message(destination=3, words=40, payload=None)]
            for sender in range(3)
        }
        with pytest.raises(MemoryExceededError) as excinfo:
            cluster.exchange(outboxes)
        assert excinfo.value.machine_id == 3
