"""Unit tests for MPC-Simulation (Section 4.3, Lemma 4.2)."""

import math

import pytest

from repro.baselines.blossom import maximum_matching
from repro.core.config import MatchingConfig
from repro.core.matching_mpc import mpc_fractional_matching
from repro.core.thresholds import ThresholdOracle
from repro.dist.executor import DistExecutor
from repro.dist.transport import LocalTransport
from repro.graph.generators import (
    complete_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.graph.properties import is_vertex_cover
from repro.utils.trace import Trace


class TestBasics:
    def test_empty_graph(self):
        result = mpc_fractional_matching(Graph(0))
        assert result.weight == 0.0
        assert result.rounds == 0

    def test_edgeless_graph(self):
        result = mpc_fractional_matching(Graph(5))
        assert result.weight == 0.0
        assert result.vertex_cover == set()

    def test_determinism(self):
        g = gnp_random_graph(150, 0.1, seed=1)
        a = mpc_fractional_matching(g, seed=5)
        b = mpc_fractional_matching(g, seed=5)
        assert a.weight == b.weight
        assert a.vertex_cover == b.vertex_cover
        assert a.rounds == b.rounds


class TestInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_valid_fractional_matching(self, seed):
        g = gnp_random_graph(200, 0.08, seed=seed)
        result = mpc_fractional_matching(g, seed=seed)
        assert result.matching.is_valid()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cover_covers(self, seed):
        g = gnp_random_graph(200, 0.08, seed=seed)
        result = mpc_fractional_matching(g, seed=seed)
        assert is_vertex_cover(g, result.vertex_cover)

    def test_star(self):
        g = star_graph(50)
        result = mpc_fractional_matching(g, seed=4)
        assert is_vertex_cover(g, result.vertex_cover)
        assert result.matching.is_valid()

    def test_complete_graph(self):
        g = complete_graph(64)
        result = mpc_fractional_matching(g, seed=5)
        assert result.matching.is_valid()
        assert is_vertex_cover(g, result.vertex_cover)

    def test_path(self):
        g = path_graph(80)
        result = mpc_fractional_matching(g, seed=6)
        assert is_vertex_cover(g, result.vertex_cover)


class TestQuality:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lemma_4_2_weight_bound(self, seed):
        """Fractional weight within (2+50ε) of the maximum matching."""
        eps = 0.1
        g = gnp_random_graph(192, 0.08, seed=seed)
        config = MatchingConfig(epsilon=eps)
        result = mpc_fractional_matching(g, config=config, seed=seed)
        optimum = len(maximum_matching(g))
        assert result.weight >= optimum / (2 + 50 * eps) - 1e-9

    def test_cover_within_factor_of_matching(self):
        eps = 0.1
        g = gnp_random_graph(192, 0.08, seed=7)
        result = mpc_fractional_matching(
            g, config=MatchingConfig(epsilon=eps), seed=7
        )
        optimum = len(maximum_matching(g))
        # |C| <= 2(1+50eps) W_M <= (2+100eps) |M*| (duality, Lemma 4.2).
        assert len(result.vertex_cover) <= (2 + 100 * eps) * optimum + 1

    def test_rounding_candidates_exist(self):
        eps = 0.1
        g = gnp_random_graph(256, 0.08, seed=8)
        result = mpc_fractional_matching(
            g, config=MatchingConfig(epsilon=eps), seed=8
        )
        candidates = result.rounding_candidates(eps)
        # Lemma 4.2: at least |C|/3 cover vertices have load >= 1-5eps.
        assert len(candidates) >= len(result.vertex_cover) / 3 - 1


class TestSchedule:
    def test_phases_are_loglog(self):
        g = gnp_random_graph(1024, 0.05, seed=9)
        result = mpc_fractional_matching(g, seed=9)
        assert result.phases <= 3 * math.log2(math.log2(1024)) + 2

    def test_rounds_grow_slowly_with_n(self):
        rounds = []
        for n in (256, 1024):
            g = gnp_random_graph(n, 16.0 / n, seed=10)
            rounds.append(mpc_fractional_matching(g, seed=10).rounds)
        # Quadrupling n adds only a handful of rounds (log log + direct tail).
        assert rounds[1] - rounds[0] <= 12

    def test_machine_memory_respected(self):
        config = MatchingConfig(memory_factor=8)
        g = gnp_random_graph(256, 0.2, seed=11)
        result = mpc_fractional_matching(g, config=config, seed=11)
        # Lemma 4.7: per-machine induced subgraphs stay O(n).
        assert result.max_machine_edges * 2 <= config.memory_factor * 256

    def test_heavy_removed_are_in_cover(self):
        g = gnp_random_graph(256, 0.1, seed=12)
        result = mpc_fractional_matching(g, seed=12)
        assert result.heavy_removed <= result.vertex_cover

    def test_weights_exclude_heavy_vertices(self):
        g = gnp_random_graph(256, 0.1, seed=13)
        result = mpc_fractional_matching(g, seed=13)
        for (u, v) in result.matching.weights:
            assert u not in result.heavy_removed
            assert v not in result.heavy_removed


class TestFusedMachineBlock:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_threshold_pass_per_step_per_worker(self, monkeypatch, workers):
        """Each compressed phase makes at most ``iterations × workers``
        ``crosses_batch`` calls: one per step over a worker's machine
        range, never one per machine."""
        calls = []
        crosses_batch = ThresholdOracle.crosses_batch

        def counted(self, vertices, iteration, estimates):
            calls.append(iteration)
            return crosses_batch(self, vertices, iteration, estimates)

        monkeypatch.setattr(ThresholdOracle, "crosses_batch", counted)
        trace = Trace()
        g = gnp_random_graph(1024, 0.05, seed=9)
        with DistExecutor(LocalTransport(workers)) as executor:
            mpc_fractional_matching(g, seed=9, trace=trace, executor=executor)

        phases = trace.events("matching_phase")
        assert phases and max(p["machines"] for p in phases) > workers
        start = 0
        for phase in phases:
            stop = start + phase["iterations"]
            made = sum(start <= t < stop for t in calls)
            assert made <= phase["iterations"] * workers
            start = stop
