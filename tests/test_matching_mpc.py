"""Unit tests for MPC-Simulation (Section 4.3, Lemma 4.2)."""

import math

import numpy as np
import pytest

from repro.baselines.blossom import maximum_matching
from repro.core.central import NEVER_FROZEN
from repro.core.config import MatchingConfig
from repro.core.integral import mpc_maximum_matching
from repro.core.matching_mpc import (
    _machine_insertions,
    _phase_can_freeze,
    mpc_fractional_matching,
)
from repro.core.thresholds import ThresholdOracle, fixed_oracle
from repro.dist.executor import DistExecutor
from repro.dist.transport import LocalTransport, MultiprocessTransport
from repro.graph.generators import (
    complete_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.graph.properties import is_vertex_cover
from repro.mpc.cluster import MPCCluster


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
        g = gnp_random_graph(1024, 0.05, seed=9)
        with DistExecutor(LocalTransport(workers)) as executor:
            mpc_fractional_matching(g, seed=9, executor=executor)

        assert phases and max(p["machines"] for p in phases) > workers
        for phase in phases:
            start = phase["start"]
            stop = start + phase["iterations"]
            made = sum(start <= t < stop for t in calls)
            assert made <= phase["iterations"] * workers


def _layout_run(oracle, ids, machine_of, edges, y, start, iterations, machines, w0, growth):
    """``(guard verdict, kernel freezes)`` for one machine-range layout.

    ``ids`` are sorted by ``(machine, id)``; ``edges`` are same-machine
    position pairs.  The guard reads the starting degrees and loads the
    driver hands it; the kernel gets the layout as a worker would.
    """
    ids = np.asarray(ids, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    y = np.asarray(y, dtype=np.float64)
    degree = np.bincount(edges.ravel(), minlength=len(ids))
    verdict = _phase_can_freeze(
        degree, y, oracle, start, iterations, machines, w0, growth
    )
    vertices, times = _machine_insertions(
        ids,
        np.asarray(machine_of, dtype=np.int64),
        edges[:, 0],
        edges[:, 1],
        y,
        oracle,
        start,
        iterations,
        machines,
        w0,
        growth,
    )
    return verdict, list(zip(vertices.tolist(), times.tolist()))


class TestQuietPhaseGuard:
    """A compressed phase the guard calls quiet freezes nothing.

    The driver skips the ``matching.machines`` step of such a phase, so
    the guard must never call a phase quiet that the kernel would freeze
    a vertex in.
    """

    def test_quiet_layouts_freeze_nothing(self):
        rng = np.random.default_rng(2024)
        quiet = dispatched = 0
        for _ in range(400):
            machines = int(rng.integers(1, 6))
            k = int(rng.integers(0, 24))
            ids = rng.choice(100, size=k, replace=False)
            labels = rng.integers(0, machines, size=k)
            order = np.lexsort((ids, labels))
            ids, labels = ids[order], labels[order]
            pairs = [
                (a, b)
                for a in range(k)
                for b in range(a + 1, k)
                if labels[a] == labels[b]
            ]
            density = rng.random()
            edges = [e for e in pairs if rng.random() < density]
            low = float(rng.uniform(0.3, 0.9))
            if rng.random() < 0.5:
                oracle = fixed_oracle(low)
            else:
                oracle = ThresholdOracle(
                    low, low + float(rng.uniform(0.0, 0.2)), seed=int(rng.integers(99))
                )
            start, iterations = int(rng.integers(0, 30)), int(rng.integers(1, 7))
            w0 = float(rng.uniform(1e-4, 2e-2))
            growth = 1.0 / (1.0 - float(rng.uniform(0.05, 0.3)))
            # Frozen loads from well below the band to just under ``low``;
            # a third of them put the last step's full-degree estimate
            # within a rounding error of ``low``.
            degree = np.bincount(
                np.asarray(edges, dtype=np.int64).ravel(), minlength=k
            )
            peak = machines * degree * (w0 * growth ** (start + iterations - 1))
            y = np.where(
                rng.random(k) < 1 / 3,
                np.maximum(low - peak * rng.choice([1.0, 1.0 - 1e-12], k), 0.0),
                low * rng.uniform(0.5, 1.0, size=k) ** 4,
            )
            verdict, freezes = _layout_run(
                oracle,
                ids,
                labels,
                edges,
                y,
                start,
                iterations,
                machines,
                w0,
                growth,
            )
            if verdict:
                dispatched += 1
            else:
                quiet += 1
                assert freezes == []
        assert quiet > 25 and dispatched > 25

    @pytest.mark.parametrize(
        "oracle", [fixed_oracle(0.75), ThresholdOracle(0.75, 0.8, seed=3)]
    )
    def test_one_ulp_below_low_is_quiet(self, oracle):
        below = np.nextafter(0.75, 0.0)
        verdict, freezes = _layout_run(
            oracle, [4, 7], [0, 1], [], [below, 0.5], 0, 3, 2, 0.01, 1.25
        )
        assert not verdict
        assert freezes == []

    def test_bound_equal_to_low_dispatches(self):
        # Two vertices on one machine, joined by an edge: the estimate is
        # (2 · 1) · w_t + 0.25 with w_0 = 0.125 and growth 2, exactly 0.75
        # at the phase's last step t = 1 (and 0.5 at t = 0), so the bound
        # must use the largest w_t.
        oracle = fixed_oracle(0.75)
        verdict, freezes = _layout_run(
            oracle, [3, 5], [0, 0], [(0, 1)], [0.25, 0.25], 0, 2, 2, 0.125, 2.0
        )
        assert verdict
        assert freezes == [(3, 1), (5, 1)]
        verdict, freezes = _layout_run(
            oracle, [3, 5], [0, 0], [(0, 1)], [0.25, 0.25], 0, 1, 2, 0.125, 2.0
        )
        assert not verdict
        assert freezes == []

    def test_empty_range_is_quiet(self):
        verdict, freezes = _layout_run(
            fixed_oracle(0.5), [], [], [], [], 0, 3, 2, 0.1, 1.1
        )
        assert not verdict
        assert freezes == []


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
