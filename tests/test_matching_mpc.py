"""Unit tests for MPC-Simulation (Section 4.3, Lemma 4.2)."""

import math

import numpy as np
import pytest

from repro.baselines.blossom import maximum_matching
from repro.core.central import NEVER_FROZEN, start_weight
from repro.core.config import MatchingConfig
from repro.core.integral import mpc_maximum_matching
from repro.core.matching_mpc import _machine_insertions, mpc_fractional_matching
from repro.core.thresholds import ThresholdOracle, fixed_oracle
from repro.dist.executor import DistExecutor
from repro.dist.transport import LocalTransport, MultiprocessTransport
from repro.graph.csr import as_csr
from repro.graph.generators import (
    barabasi_albert,
    complete_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.graph.properties import is_vertex_cover
from repro.mpc.cluster import MPCCluster
from tests.compressed_stage import (
    compressed_stage_graph,
    reaches_compressed_stage,
)


class TestBasics:
    def test_empty_graph(self):
        result = mpc_fractional_matching(Graph(0))
        assert result.weight == 0.0
        assert result.rounds == 0

    def test_edgeless_graph(self):
        result = mpc_fractional_matching(Graph(5))
        assert result.weight == 0.0
        assert result.vertex_cover.size == 0
        assert result.freeze_at.tolist() == [NEVER_FROZEN] * 5

    def test_determinism(self):
        g = gnp_random_graph(150, 0.1, seed=1)
        a = mpc_fractional_matching(g, seed=5)
        b = mpc_fractional_matching(g, seed=5)
        assert a.weight == b.weight
        assert np.array_equal(a.vertex_cover, b.vertex_cover)
        assert np.array_equal(a.freeze_at, b.freeze_at)
        assert a.rounds == b.rounds


START_RULE_GRAPHS = {
    "gnp": lambda: gnp_random_graph(300, 0.06, seed=1),
    "ba": lambda: barabasi_albert(500, 3, seed=1),
    "star": lambda: star_graph(40),
    "path": lambda: path_graph(30),
}


class TestStartRule:
    """The schedule starts at the measured maximum degree: ``d = Δ`` and
    ``w0 = (1 - 4ε)(1 - ε)^2/Δ``, so every starting load is at most
    ``1 - 2ε`` and, two growth steps from it, below the band's low end."""

    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("kind", sorted(START_RULE_GRAPHS))
    def test_starting_loads_stay_at_or_below_the_band_top(self, kind, epsilon):
        csr = as_csr(START_RULE_GRAPHS[kind]())
        w0 = start_weight(csr, epsilon)
        # Compared as floats, bit for bit: no tolerance.
        assert csr.max_degree() * w0 <= 1.0 - 2.0 * epsilon
        assert bool(np.all(csr.degrees() * w0 <= 1.0 - 2.0 * epsilon))
        assert csr.max_degree() * w0 < 1.0 - 4.0 * epsilon
        assert w0 == (1.0 - 4.0 * epsilon) * (1.0 - epsilon) ** 2 / csr.max_degree()

    @pytest.mark.parametrize("epsilon", [0.25, 0.3, 0.49])
    def test_wide_bands_start_at_their_top(self, epsilon):
        # From ε = 1/4 the band's low end is not positive: no positive
        # load lies below it, so the start is the band's top.
        csr = as_csr(START_RULE_GRAPHS["gnp"]())
        w0 = start_weight(csr, epsilon)
        assert w0 == (1.0 - 2.0 * epsilon) / csr.max_degree()
        assert w0 > 0.0

    @pytest.mark.parametrize("kind", sorted(START_RULE_GRAPHS) + ["compressed"])
    def test_every_kernel_starts_from_the_start_weight(self, monkeypatch, kind):
        graph = (
            compressed_stage_graph()
            if kind == "compressed"
            else START_RULE_GRAPHS[kind]()
        )
        weights = []
        map_tasks = DistExecutor.map_tasks

        def spied(self, kernel, tasks, shared=None, phase="map"):
            if kernel == "matching.machines":
                weights.append(shared["w0"])
            elif kernel == "matching.direct_tail":
                weights.extend(task["w0"] for task in tasks)
            return map_tasks(self, kernel, tasks, shared=shared, phase=phase)

        monkeypatch.setattr(DistExecutor, "map_tasks", spied)
        result = mpc_fractional_matching(graph, seed=2)
        assert weights
        assert set(weights) == {start_weight(as_csr(graph), 0.1)}
        # Compressed phases run exactly when Δ exceeds the floor.
        assert (result.phases > 0) == reaches_compressed_stage(graph)

    def test_edgeless_inputs_keep_their_outputs(self):
        for n in (0, 1, 7):
            result = mpc_fractional_matching(Graph(n), seed=3)
            assert (result.rounds, result.phases, result.iterations) == (0, 0, 0)
            assert result.weight == 0.0
            assert result.vertex_cover.size == 0
            assert result.heavy_removed.size == 0
            assert result.freeze_at.tolist() == [NEVER_FROZEN] * n

    @pytest.mark.parametrize("graph_kind", ["sparse", "compressed"])
    def test_isolated_vertices_never_enter_the_cover(self, graph_kind):
        base = (
            gnp_random_graph(200, 0.05, seed=4)
            if graph_kind == "sparse"
            else compressed_stage_graph("dense")
        )
        edges = as_csr(base).edge_array().tolist()
        # Ten isolated vertices appended after the base graph's.
        graph = Graph(base.num_vertices + 10, [tuple(e) for e in edges])
        isolated = np.flatnonzero(as_csr(graph).degrees() == 0)
        assert isolated.size >= 10
        result = mpc_fractional_matching(graph, seed=4)
        assert not np.isin(isolated, result.vertex_cover).any()
        assert (result.freeze_at[isolated] == NEVER_FROZEN).all()
        assert is_vertex_cover(graph, result.vertex_cover.tolist())


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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dense_input_keeps_its_weight(self, seed):
        """On a dense input the first compressed phase's estimates are
        the noisiest; starting below the threshold band keeps Line (i)
        removals rare, so the weight meets ``ν / (2 + 2ε)`` with no
        heavy-removal slack."""
        eps = 0.1
        g = compressed_stage_graph("dense")
        result = mpc_fractional_matching(
            g, config=MatchingConfig(epsilon=eps), seed=seed
        )
        optimum = len(maximum_matching(g))
        assert result.phases > 0
        assert result.weight * (2 + 2 * eps) >= optimum
        assert len(result.heavy_removed) <= 5

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
        g = compressed_stage_graph()
        result = mpc_fractional_matching(g, seed=9)
        assert 0 < result.phases <= 3 * math.log2(math.log2(2000)) + 2

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
        assert np.isin(result.heavy_removed, result.vertex_cover).all()

    def test_cover_is_frozen_plus_heavy_removed(self):
        """Lemma 4.2's cover: the frozen vertices and the Line (i) ones."""
        g = star_graph(1000)
        result = mpc_fractional_matching(g, seed=5)
        frozen = np.flatnonzero(result.freeze_at != NEVER_FROZEN)
        assert result.heavy_removed.tolist() == [0]
        assert np.array_equal(
            result.vertex_cover, np.union1d(frozen, result.heavy_removed)
        )

    def test_weights_exclude_heavy_vertices(self):
        g = gnp_random_graph(256, 0.1, seed=13)
        result = mpc_fractional_matching(g, seed=13)
        for u, v in result.matching.edges.tolist():
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
        phases = []
        map_tasks = DistExecutor.map_tasks

        def spied(self, kernel, tasks, shared=None, phase="map"):
            if kernel == "matching.machines":
                phases.append(dict(shared))
            return map_tasks(self, kernel, tasks, shared=shared, phase=phase)

        monkeypatch.setattr(DistExecutor, "map_tasks", spied)
        g = compressed_stage_graph()
        with DistExecutor(LocalTransport(workers)) as executor:
            mpc_fractional_matching(g, seed=9, executor=executor)

        assert phases and max(p["machines"] for p in phases) > workers
        for phase in phases:
            start = phase["start"]
            stop = start + phase["iterations"]
            made = sum(start <= t < stop for t in calls)
            assert made <= phase["iterations"] * workers


class TestGatheredTail:
    """A direct tail that fits machine 0 finishes there in one task.

    It runs the same ``matching.direct_tail`` task as a tail charged per
    iteration, so the freeze times, and with them every output, are
    byte-identical; only the rounds move.
    """

    @staticmethod
    def _outputs(graph, executor):
        fractional = mpc_fractional_matching(graph, seed=3, executor=executor)
        integral = mpc_maximum_matching(graph, seed=3, executor=executor)
        return fractional, integral, (
            fractional.freeze_at.tobytes(),
            fractional.matching.edges.tobytes(),
            fractional.matching.x.tobytes(),
            integral.matching.tobytes(),
        )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_gather_is_output_neutral(self, monkeypatch, workers):
        g = gnp_random_graph(300, 0.02, seed=3)
        executor = (
            None if workers is None else DistExecutor(MultiprocessTransport(workers))
        )
        try:
            fractional, integral, gathered = self._outputs(g, executor)
            monkeypatch.setattr(MPCCluster, "fits_leader", lambda *args: False)
            per_fractional, per_integral, per_iteration = self._outputs(
                g, executor
            )
        finally:
            if executor is not None:
                executor.close()
        assert gathered == per_iteration
        assert fractional.direct_iterations == per_fractional.direct_iterations
        assert fractional.rounds < per_fractional.rounds
        assert integral.rounds < per_integral.rounds

    @pytest.mark.parametrize("gather", [True, False])
    def test_iteration_cap_raises_on_both_paths(self, monkeypatch, gather):
        if not gather:
            monkeypatch.setattr(MPCCluster, "fits_leader", lambda *args: False)
        g = gnp_random_graph(300, 0.02, seed=3)
        config = MatchingConfig(max_direct_iterations=1)
        with pytest.raises(RuntimeError, match="iteration cap"):
            mpc_fractional_matching(g, config=config, seed=3)
