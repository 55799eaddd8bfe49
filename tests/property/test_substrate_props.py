"""Property-based tests for the substrate primitives: sort, prefix sums,
rounding, thresholds, and the vertex-program engine."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.rounding import round_fractional_matching
from repro.core.thresholds import ThresholdOracle
from repro.graph.generators import gnm_random_graph
from repro.graph.graph import canonical_edge
from repro.graph.properties import is_matching
from repro.mpc.cluster import MPCCluster
from repro.mpc.programs import luby_vertex_program, matching_vertex_program
from repro.graph.properties import is_maximal_independent_set, is_maximal_matching
from tests.reference.fractional import from_weights
from tests.reference.sort import mpc_prefix_sums, mpc_sort

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSortProperties:
    @_SETTINGS
    @given(
        data=st.lists(st.integers(-1000, 1000), max_size=400),
        machines=st.integers(2, 8),
        seed=st.integers(0, 1000),
    )
    def test_sort_is_sorted_permutation(self, data, machines, seed):
        cluster = MPCCluster(machines, words_per_machine=4 * len(data) + 64)
        shards = [data[i::machines] for i in range(machines)]
        outcome = mpc_sort(cluster, shards, seed=seed)
        assert outcome.flattened() == sorted(data)

    @_SETTINGS
    @given(
        data=st.lists(st.floats(0, 100, allow_nan=False), max_size=100),
        machines=st.integers(1, 5),
    )
    def test_prefix_sums_match_sequential(self, data, machines):
        cluster = MPCCluster(machines, words_per_machine=4 * len(data) + 64)
        shards = [data[i::machines] for i in range(machines)]
        result, _ = mpc_prefix_sums(cluster, shards)
        # Global prefix property: each shard continues where the prior ends.
        flat_input = [x for shard in shards for x in shard]
        flat_output = [x for shard in result for x in shard]
        expected = []
        acc = 0.0
        for x in flat_input:
            acc += x
            expected.append(acc)
        assert all(abs(a - b) < 1e-6 for a, b in zip(flat_output, expected))


class TestThresholdProperties:
    @_SETTINGS
    @given(
        lo=st.floats(0.0, 0.9),
        width=st.floats(0.0, 0.1),
        v=st.integers(0, 10**6),
        t=st.integers(0, 10**4),
        seed=st.integers(0, 1000),
    )
    def test_threshold_in_interval_and_stable(self, lo, width, v, t, seed):
        oracle = ThresholdOracle(lo, lo + width, seed=seed)
        value = oracle.threshold(v, t)
        assert lo <= value <= lo + width
        assert value == oracle.threshold(v, t)


class TestRoundingProperties:
    @_SETTINGS
    @given(seed=st.integers(0, 10**6), graph_seed=st.integers(0, 100))
    def test_rounding_on_uniform_weights(self, seed, graph_seed):
        graph = gnm_random_graph(30, 60, seed=graph_seed)
        # Uniform feasible weights: x_e = 1/deg_max.
        top = max(1, graph.max_degree())
        weights = {
            canonical_edge(u, v): 1.0 / top for u, v in graph.edges()
        }
        outcome = round_fractional_matching(
            from_weights(graph, weights), set(range(30)), seed=seed
        )
        assert is_matching(graph, outcome.matching)
        assert outcome.proposals == len(outcome.matching) + outcome.collisions


class TestVertexProgramProperties:
    @_SETTINGS
    @given(graph_seed=st.integers(0, 200), seed=st.integers(0, 200))
    def test_luby_program_invariant(self, graph_seed, seed):
        graph = gnm_random_graph(24, 40, seed=graph_seed)
        result = luby_vertex_program(graph, seed=seed)
        assert is_maximal_independent_set(graph, result.mis)

    @_SETTINGS
    @given(graph_seed=st.integers(0, 200), seed=st.integers(0, 200))
    def test_matching_program_invariant(self, graph_seed, seed):
        graph = gnm_random_graph(24, 40, seed=graph_seed)
        result = matching_vertex_program(graph, seed=seed)
        assert is_maximal_matching(graph, result.matching)
