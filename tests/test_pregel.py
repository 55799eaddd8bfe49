"""Unit tests for the vertex-centric engine and its programs."""

import math

import numpy as np
import pytest

from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.graph.properties import (
    is_matching,
    is_maximal_independent_set,
    is_maximal_matching,
)
from repro.mpc.engine import PregelEngine
from repro.mpc.errors import MemoryExceededError
from repro.mpc.programs import luby_vertex_program, matching_vertex_program


class TestEngine:
    def test_single_superstep_halt(self):
        g = path_graph(5)
        engine = PregelEngine(g, seed=1)

        def compute(ctx, messages):
            ctx.state["seen"] = True
            ctx.vote_to_halt()

        result = engine.run(compute)
        assert result.supersteps == 1
        assert all(state["seen"] for state in result.states.values())

    def test_message_round_trip(self):
        g = Graph(2, [(0, 1)])
        engine = PregelEngine(g, seed=2)

        def compute(ctx, messages):
            if ctx.superstep == 0:
                ctx.send_to_neighbors(("ping", ctx.vertex))
            else:
                ctx.state["got"] = sorted(messages)
                ctx.vote_to_halt()

        result = engine.run(compute)
        assert result.states[0]["got"] == [("ping", 1)]
        assert result.states[1]["got"] == [("ping", 0)]

    def test_rounds_equal_supersteps(self):
        g = cycle_graph(6)
        engine = PregelEngine(g, seed=3)

        def compute(ctx, messages):
            if ctx.superstep >= 3:
                ctx.vote_to_halt()
            else:
                ctx.send_to_neighbors(("x", 0))

        result = engine.run(compute)
        assert result.rounds == result.supersteps

    def test_non_quiescing_program_raises(self):
        g = path_graph(3)
        engine = PregelEngine(g, seed=4)

        def chatty(ctx, messages):
            ctx.send_to_neighbors(("noise", 0))

        with pytest.raises(RuntimeError, match="quiesce"):
            engine.run(chatty, max_supersteps=10)

    def test_memory_enforcement(self):
        """A broadcast-storm program must blow the word budget loudly."""
        g = complete_graph(40)
        engine = PregelEngine(g, words_per_machine=30, seed=5)

        def storm(ctx, messages):
            if ctx.superstep == 0:
                ctx.send_to_neighbors(("flood", 0))
            else:
                ctx.vote_to_halt()

        with pytest.raises(MemoryExceededError):
            engine.run(storm)

    def test_per_vertex_and_batched_draws_agree(self):
        """``VertexContext.random`` and ``BatchSuperstep.random`` read the
        same counter-keyed draw at every (vertex, superstep), bit for bit."""
        g = gnp_random_graph(40, 0.1, seed=7)
        engine = PregelEngine(g, seed=12)
        supersteps = 4

        def compute(ctx, messages):
            ctx.state[ctx.superstep] = ctx.random()
            if ctx.superstep == supersteps - 1:
                ctx.vote_to_halt()

        states = engine.run(compute).states

        class Recorder:
            def initialize(self, graph):
                self.draws = {}

            def compute_batch(self, step):
                self.draws[step.superstep] = step.random(step.active)
                if step.superstep == supersteps - 1:
                    step.halt(step.active)

        recorder = Recorder()
        engine.run_batch(recorder)
        assert sorted(recorder.draws) == list(range(supersteps))
        for superstep, batch in recorder.draws.items():
            per_vertex = np.array(
                [states[v][superstep] for v in range(g.num_vertices)]
            )
            assert batch.tobytes() == per_vertex.tobytes()

    def test_deterministic_randomness(self):
        g = gnp_random_graph(30, 0.2, seed=6)
        a = luby_vertex_program(g, seed=9)
        b = luby_vertex_program(g, seed=9)
        assert a.mis == b.mis
        assert a.supersteps == b.supersteps


class TestLubyProgram:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_maximal_independent(self, seed):
        g = gnp_random_graph(80, 0.1, seed=seed)
        result = luby_vertex_program(g, seed=seed)
        assert is_maximal_independent_set(g, result.mis)

    def test_supersteps_logarithmic(self):
        g = gnp_random_graph(300, 0.05, seed=3)
        result = luby_vertex_program(g, seed=3)
        assert result.supersteps <= 8 * math.log2(300)

    def test_star(self):
        result = luby_vertex_program(star_graph(15), seed=4)
        assert is_maximal_independent_set(star_graph(15), result.mis)

    def test_isolated_vertices_included(self):
        g = Graph(6, [(0, 1)])
        result = luby_vertex_program(g, seed=5)
        assert {2, 3, 4, 5} <= result.mis

    def test_agrees_with_direct_luby_invariant(self):
        """The vertex program and the direct loop compute (different but)
        both-maximal independent sets of the same graph."""
        from repro.baselines.luby import luby_mis

        g = gnp_random_graph(100, 0.08, seed=6)
        program = luby_vertex_program(g, seed=6)
        direct = luby_mis(g, seed=6)
        assert is_maximal_independent_set(g, program.mis)
        assert is_maximal_independent_set(g, direct.mis)


class TestMatchingProgram:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_output_is_matching(self, seed):
        g = gnp_random_graph(80, 0.1, seed=seed)
        result = matching_vertex_program(g, seed=seed)
        assert is_matching(g, result.matching)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_output_is_maximal(self, seed):
        g = gnp_random_graph(60, 0.1, seed=seed)
        result = matching_vertex_program(g, seed=seed)
        assert is_maximal_matching(g, result.matching)

    def test_path(self):
        g = path_graph(10)
        result = matching_vertex_program(g, seed=3)
        assert is_maximal_matching(g, result.matching)

    def test_star_center_proposes_to_every_leaf_position(self):
        """The proposal target is a uniform live neighbor, so on a
        5000-leaf star the center's proposals also reach the leaves past
        sorted position 3960."""
        star = star_graph(5000)
        matched_leaves = []
        for seed in range(200):
            result = matching_vertex_program(
                star, seed=seed, words_per_machine=10**6
            )
            ((center, leaf),) = result.matching
            assert center == 0
            matched_leaves.append(leaf)
        assert max(matched_leaves) > 3960

    def test_star_matches_once(self):
        result = matching_vertex_program(star_graph(9), seed=4)
        assert len(result.matching) == 1

    def test_complete_graph(self):
        g = complete_graph(20)
        result = matching_vertex_program(g, seed=5)
        assert is_maximal_matching(g, result.matching)
        assert len(result.matching) == 10  # maximal on K_even is perfect

    def test_supersteps_logarithmic(self):
        g = gnp_random_graph(200, 0.05, seed=6)
        result = matching_vertex_program(g, seed=6)
        assert result.supersteps <= 15 * math.log2(200)
