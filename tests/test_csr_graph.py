"""CSR kernel layer: equivalence against the set-based reference Graph.

Every vectorized kernel must agree with the pure-Python :class:`Graph`
implementation on random (hypothesis-generated + seeded generators) and
structured graphs; conversions must round-trip losslessly; and the façade
backends must stay deterministic under fixed seeds now that the hot paths
run on CSR.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import registry, solve
from repro.graph.csr import (
    CSRGraph,
    GraphView,
    as_csr,
    canonical_graph,
    sorted_unique,
)
from repro.graph.generators import (
    barabasi_albert,
    complete_graph,
    gnm_random_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.graph.weighted import WeightedGraph
from repro.ooc import MMapCSRGraph, load_csr, save_csr


# -- strategies (shared; see tests/property/strategies.py) ------------------

from tests.property.strategies import (  # noqa: E402
    dense_pair_graphs as graphs,
    graphs_with_subsets,
    induced_edge_list,
    mask_of,
)


STRUCTURED = [
    Graph(0),
    Graph(5),
    path_graph(17),
    star_graph(12),
    complete_graph(9),
    grid_graph(4, 5),
    gnp_random_graph(60, 0.1, seed=3),
    gnp_random_graph(60, 0.5, seed=4),
    barabasi_albert(60, 3, seed=5),
]


# -- conversions ------------------------------------------------------------


class TestConversion:
    @pytest.mark.parametrize("graph", STRUCTURED, ids=repr)
    def test_round_trip_structured(self, graph):
        assert CSRGraph.from_graph(graph).to_graph() == graph

    @given(graphs())
    def test_round_trip(self, graph):
        csr = CSRGraph.from_graph(graph)
        assert csr.to_graph() == graph
        assert csr.num_vertices == graph.num_vertices
        assert csr.num_edges == graph.num_edges

    @given(graphs())
    def test_from_edges_matches_from_graph(self, graph):
        built = CSRGraph.from_edges(graph.num_vertices, graph.edges())
        assert built == CSRGraph.from_graph(graph)

    def test_from_edge_array_collapses_duplicates_and_orientations(self):
        csr = CSRGraph.from_edge_array(4, np.array([[0, 1], [1, 0], [2, 3], [0, 1]]))
        assert csr.num_edges == 2
        assert csr.edge_list() == [(0, 1), (2, 3)]

    @pytest.mark.parametrize("seed", range(5))
    def test_from_edge_array_matches_unique_reference(self, seed):
        # Multisets with repeats in both orientations, against the
        # np.unique canonicalization the sort-and-compare path replaced.
        rng = np.random.default_rng(seed)
        n = 40
        edges = rng.integers(0, n, size=(600, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        edges = np.concatenate([edges, edges[::3, ::-1], edges[::5]])
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        keys = np.unique(lo * n + hi)
        lo, hi = keys // n, keys % n
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.lexsort((dst, src))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

        csr = CSRGraph.from_edge_array(n, edges)
        np.testing.assert_array_equal(csr.indptr, indptr)
        np.testing.assert_array_equal(csr.indices, dst[order])

    def test_from_edge_array_rejects_self_loops_and_range(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edge_array(3, np.array([[1, 1]]))
        with pytest.raises(ValueError):
            CSRGraph.from_edge_array(3, np.array([[0, 3]]))

    def test_helpers_and_protocol(self):
        graph = path_graph(6)
        csr = as_csr(graph)
        assert as_csr(csr) is csr
        assert canonical_graph(csr) == graph
        assert canonical_graph(graph) == graph
        assert isinstance(graph, GraphView)
        assert isinstance(csr, GraphView)


def canonical_loop_graph(graph: Graph) -> Graph:
    """``graph`` rebuilt by ``add_edge`` over its sorted edge list."""
    rebuilt = Graph(graph.num_vertices)
    for u, v in graph.edge_list():
        rebuilt.add_edge(u, v)
    return rebuilt


class TestToGraphIterationOrder:
    """``to_graph`` fills each set in the canonical ``add_edge`` order, so
    searches that walk adjacency sets see the same neighbor sequence."""

    @staticmethod
    def assert_same_order(graph: Graph) -> None:
        expected = canonical_loop_graph(graph)
        built = CSRGraph.from_graph(graph).to_graph()
        assert built == expected
        assert built.num_edges == expected.num_edges
        for v in graph.vertices():
            assert list(built.neighbors_view(v)) == list(
                expected.neighbors_view(v)
            )

    @given(graphs())
    def test_matches_add_edge_loop(self, graph):
        self.assert_same_order(graph)

    @pytest.mark.parametrize(
        "graph",
        STRUCTURED + [gnp_random_graph(300, 0.3, seed=6)],
        ids=repr,
    )
    def test_matches_add_edge_loop_structured(self, graph):
        self.assert_same_order(graph)


class TestCSRMemo:
    """A ``Graph`` keeps its CSR form until it is mutated."""

    @staticmethod
    def assert_fresh(graph) -> None:
        assert as_csr(graph) == CSRGraph.from_graph(graph)

    def test_unchanged_graph_converts_once(self):
        graph = gnp_random_graph(40, 0.2, seed=1)
        assert as_csr(graph) is as_csr(graph)
        graph.add_edge(*next(iter(graph.edges())))  # present: a no-op
        assert as_csr(graph) is as_csr(graph)
        self.assert_fresh(graph)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_edge(0, 9),
            lambda g: g.remove_edge(0, 1),
            lambda g: g.isolate(2),
            lambda g: g.remove_closed_neighborhood(3),
        ],
        ids=["add_edge", "remove_edge", "isolate", "remove_closed_neighborhood"],
    )
    def test_mutations_invalidate(self, mutate):
        graph = path_graph(10)
        before = as_csr(graph)
        mutate(graph)
        assert as_csr(graph) != before
        self.assert_fresh(graph)

    def test_weighted_add_edge_invalidates(self):
        weighted = WeightedGraph(5, [(0, 1, 2.0), (1, 2, 1.0)])
        before = as_csr(weighted.structure)
        weighted.add_edge(3, 4, 0.5)
        assert as_csr(weighted.structure) != before
        self.assert_fresh(weighted.structure)

    def test_copy_does_not_share_a_stale_memo(self):
        graph = path_graph(8)
        original = as_csr(graph)
        clone = graph.copy()
        clone.add_edge(0, 7)
        self.assert_fresh(clone)
        assert as_csr(graph) is original
        self.assert_fresh(graph)

    def test_to_graph_keeps_its_csr(self):
        csr = CSRGraph.from_graph(gnp_random_graph(40, 0.2, seed=3))
        graph = csr.to_graph()
        assert as_csr(graph) is csr
        graph.remove_edge(*next(iter(graph.edges())))
        assert as_csr(graph) is not csr
        self.assert_fresh(graph)

    @staticmethod
    def count_conversions(monkeypatch):
        calls = []
        convert = CSRGraph.from_graph.__func__

        def counting(cls, graph, mask=None):
            calls.append(graph)
            return convert(cls, graph, mask)

        monkeypatch.setattr(CSRGraph, "from_graph", classmethod(counting))
        return calls

    @pytest.mark.parametrize(
        "task,backend",
        [
            ("mis", "mpc"),
            ("mis", "greedy"),
            ("weighted_matching", "mpc"),
            ("weighted_matching", "greedy"),
        ],
    )
    def test_repeated_solves_convert_once(self, monkeypatch, task, backend):
        calls = self.count_conversions(monkeypatch)
        graph = gnp_random_graph(80, 0.1, seed=2)
        first = solve(task, graph, backend=backend, seed=1, verify=True)
        second = solve(task, graph, backend=backend, seed=1, verify=True)
        assert calls == [graph]
        assert first.solution == second.solution

    def test_weighted_solve_on_csr_does_not_convert(self, monkeypatch):
        calls = self.count_conversions(monkeypatch)
        csr = CSRGraph.from_graph(gnp_random_graph(80, 0.1, seed=2))
        calls.clear()
        assert solve("weighted_matching", csr, seed=1, verify=True).valid
        assert calls == []

    def test_greedy_mis_on_csr_builds_no_set_graph(self, monkeypatch):
        graph = gnp_random_graph(80, 0.1, seed=2)
        csr = CSRGraph.from_graph(graph)
        calls = []
        to_graph = CSRGraph.to_graph

        def counting(self):
            calls.append(self)
            return to_graph(self)

        monkeypatch.setattr(CSRGraph, "to_graph", counting)
        report = solve("mis", csr, backend="greedy", seed=1)
        assert calls == []
        assert report.valid
        assert report.solution == solve("mis", graph, backend="greedy", seed=1).solution


class TestRoundTripEdgeCases:
    """Explicit pins for the empty graph and isolated-vertex shapes.

    The hypothesis strategies above can shrink past these; pinning them
    keeps the round-trip guarantees from regressing silently.
    """

    def test_empty_graph_round_trip(self):
        csr = CSRGraph.from_graph(Graph(0))
        assert csr.num_vertices == 0
        assert csr.num_edges == 0
        assert csr.to_graph() == Graph(0)
        assert csr.edge_array().shape == (0, 2)
        assert CSRGraph.from_edges(0, []) == csr

    def test_empty_graph_kernels(self):
        csr = CSRGraph.from_graph(Graph(0))
        assert csr.degrees().tolist() == []
        assert csr.max_degree() == 0
        assert csr.remove_closed_neighborhoods([]).tolist() == []
        assert csr.neighbors_bulk([]).tolist() == []

    def test_edgeless_graph_round_trip(self):
        graph = Graph(7)
        csr = CSRGraph.from_graph(graph)
        assert csr.num_vertices == 7
        assert csr.num_edges == 0
        assert csr.to_graph() == graph

    @pytest.mark.parametrize(
        "edges", [[(0, 1)], [(2, 3)], [(0, 1), (4, 5)]], ids=repr
    )
    def test_isolated_vertices_survive_round_trip(self, edges):
        # Vertex count exceeds the touched endpoints: trailing (and
        # leading) isolated vertices must be preserved by both directions.
        graph = Graph(6, edges)
        csr = CSRGraph.from_graph(graph)
        assert csr.num_vertices == 6
        assert csr.to_graph() == graph
        assert CSRGraph.from_edges(6, edges) == csr
        assert [csr.degree(v) for v in range(6)] == graph.degrees()

    def test_isolated_only_induced_edges(self):
        csr = CSRGraph.from_graph(Graph(6, [(0, 1), (2, 3)]))
        assert csr.count_edges_within([4, 5]) == 0
        assert csr.induced_edges([4, 5]).shape == (0, 2)
        assert csr.filter_edges([4, 5]).edge_list() == []


# -- kernel equivalence -----------------------------------------------------


class TestKernelEquivalence:
    @given(graphs())
    def test_degrees_and_edges(self, graph):
        csr = CSRGraph.from_graph(graph)
        assert csr.degrees().tolist() == graph.degrees()
        assert csr.max_degree() == graph.max_degree()
        assert csr.edge_list() == graph.edge_list()
        assert list(csr.edges()) == sorted(graph.edges())
        for v in range(graph.num_vertices):
            assert csr.degree(v) == graph.degree(v)
            assert set(csr.neighbors(v).tolist()) == graph.neighbors(v)

    @given(graphs())
    def test_has_edge(self, graph):
        csr = CSRGraph.from_graph(graph)
        n = graph.num_vertices
        for u in range(min(n, 8)):
            for v in range(n):
                assert csr.has_edge(u, v) == graph.has_edge(u, v)
        assert not csr.has_edge(-1, 0)
        assert not csr.has_edge(0, n + 3)

    @given(graphs_with_subsets())
    def test_residual_degrees(self, graph_and_subset):
        # degrees(mask) is the degree sequence of G[mask]: masked vertices
        # count masked neighbors, everything else reads 0.
        graph, subset = graph_and_subset
        n = graph.num_vertices
        csr = CSRGraph.from_graph(graph)
        got = csr.degrees(mask_of(subset, n))
        for v in range(n):
            if v in subset:
                expected = sum(1 for u in graph.neighbors_view(v) if u in subset)
            else:
                expected = 0
            assert got[v] == expected

    @given(graphs_with_subsets())
    def test_count_and_induced_edges(self, graph_and_subset):
        graph, subset = graph_and_subset
        n = graph.num_vertices
        csr = CSRGraph.from_graph(graph)
        mask = mask_of(subset, n)
        expected = induced_edge_list(graph, subset)
        assert csr.count_edges_within(mask) == len(expected)
        assert [tuple(e) for e in csr.induced_edges(mask).tolist()] == expected
        # Vertex-list form of the mask argument is accepted too.
        assert csr.count_edges_within(np.array(sorted(subset), dtype=np.int64)) == len(
            expected
        )

    @given(graphs_with_subsets())
    def test_filter_edges(self, graph_and_subset):
        graph, subset = graph_and_subset
        n = graph.num_vertices
        csr = CSRGraph.from_graph(graph)
        filtered = csr.filter_edges(mask_of(subset, n))
        assert filtered.num_vertices == n
        assert filtered.edge_list() == induced_edge_list(graph, subset)

    @given(graphs())
    def test_remove_closed_neighborhoods(self, graph):
        # The batch kernel removes union of *original* closed
        # neighborhoods N[v] of the listed vertices.
        n = graph.num_vertices
        if n == 0:
            return
        centers = list(range(0, n, 3))
        csr = CSRGraph.from_graph(graph)
        alive = csr.remove_closed_neighborhoods(centers)
        removed = set()
        for v in centers:
            removed.add(v)
            removed |= graph.neighbors_view(v)
        assert set(np.flatnonzero(~alive).tolist()) == removed
        # Chaining with an existing mask composes (idempotent here).
        again = csr.remove_closed_neighborhoods(centers, alive)
        assert np.array_equal(again, alive)

    @given(graphs())
    def test_remove_closed_neighborhoods_independent_set(self, graph):
        # For an independent set of centers — the only way the MIS hot
        # paths call it — the batch kernel agrees with the sequential
        # set-based removal process exactly.
        n = graph.num_vertices
        if n == 0:
            return
        independent = []
        blocked = set()
        for v in range(n):
            if v not in blocked:
                independent.append(v)
                blocked.add(v)
                blocked |= graph.neighbors_view(v)
        csr = CSRGraph.from_graph(graph)
        alive = csr.remove_closed_neighborhoods(independent)
        residual = graph.copy()
        removed = set()
        for v in independent:
            removed |= residual.remove_closed_neighborhood(v)
        assert set(np.flatnonzero(~alive).tolist()) == removed

    def test_neighbors_bulk(self):
        graph = gnp_random_graph(40, 0.2, seed=9)
        csr = CSRGraph.from_graph(graph)
        picks = [0, 7, 33]
        expected = [u for v in picks for u in sorted(graph.neighbors_view(v))]
        assert csr.neighbors_bulk(picks).tolist() == expected
        assert csr.neighbors_bulk([]).size == 0

    def test_mask_length_validation(self):
        csr = CSRGraph.from_graph(path_graph(4))
        with pytest.raises(ValueError):
            csr.degrees(np.ones(3, dtype=bool))

    def test_equality_and_hash(self):
        a = CSRGraph.from_graph(path_graph(5))
        b = CSRGraph.from_graph(path_graph(5))
        assert a == b
        assert a != CSRGraph.from_graph(star_graph(4))
        with pytest.raises(TypeError):
            hash(a)


# -- end-to-end parity ------------------------------------------------------


class TestEndToEndParity:
    """Every registered task × backend stays deterministic under a fixed
    seed with the CSR hot paths in place, solutions validate and certify
    on every input representation the façade accepts, and the report does
    not depend on that representation."""

    @pytest.mark.parametrize("representation", ["graph", "csr", "mmap"])
    @pytest.mark.parametrize(
        "task,backend",
        [(entry.task, entry.backend) for entry in registry.entries()],
    )
    def test_solve_deterministic_and_valid(
        self, task, backend, representation, tmp_path
    ):
        graph = gnp_random_graph(60, 0.15, seed=11)
        if representation != "graph":
            graph = CSRGraph.from_graph(graph)
        if representation == "mmap":
            graph = load_csr(save_csr(graph, tmp_path / "graph"))
            assert isinstance(graph, MMapCSRGraph)
        first = solve(task, graph, backend=backend, seed=5, verify=True)
        second = solve(task, graph, backend=backend, seed=5, verify=True)
        assert first.solution == second.solution
        assert first.rounds == second.rounds
        assert first.valid
        assert first.verified, first.verification
        assert first.peak_rss_bytes >= 0

    @pytest.mark.parametrize(
        "task,backend",
        [(entry.task, entry.backend) for entry in registry.entries()],
    )
    def test_report_identical_across_representations(self, task, backend, tmp_path):
        """A ``Graph``, its ``CSRGraph`` and its ``MMapCSRGraph`` give the same
        verified report.  The Barabási–Albert and G(n, m) inputs are built
        in non-ascending edge order, so their adjacency sets iterate
        differently from the CSR's rebuilt ones."""
        graphs = (
            gnp_random_graph(60, 0.15, seed=11),
            barabasi_albert(80, 3, seed=0),
            gnm_random_graph(70, 200, seed=1),
        )
        for index, graph in enumerate(graphs):
            csr = CSRGraph.from_graph(graph)
            mmap = load_csr(save_csr(csr, tmp_path / f"graph{index}"))
            for seed in (0, 5):
                payloads = []
                for representation in (graph, csr, mmap):
                    payload = solve(
                        task, representation, backend=backend, seed=seed, verify=True
                    ).to_dict()
                    del payload["wall_time_s"], payload["peak_rss_bytes"]
                    payloads.append(payload)
                assert payloads[0] == payloads[1] == payloads[2], (index, seed)

    def test_mis_mpc_matches_structured_families(self):
        # The CSR rewiring must leave seeded outputs identical across
        # residual-graph shapes that exercise every kernel branch.
        for graph in (star_graph(30), complete_graph(25), grid_graph(6, 7)):
            a = solve("mis", graph, backend="mpc", seed=3)
            b = solve("mis", graph, backend="mpc", seed=3)
            assert a.solution == b.solution
            assert a.valid


class TestSortedUnique:
    """The sort-and-compare dedup returns exactly ``np.unique``'s array."""

    @pytest.mark.parametrize(
        "values",
        [
            np.empty(0, dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.array([3, 3, 3, 3], dtype=np.int64),
            np.random.default_rng(1).integers(0, 20, 5000),
            np.random.default_rng(2).integers(-(2**62), 2**62, 5000),
            np.array([-5, 0, -5, 2**40, -(2**40), 0, -1], dtype=np.int64),
            np.array([[4, 1], [1, 4], [9, -2]], dtype=np.int64),
            np.array([2, 1, 2], dtype=np.int32),
        ],
        ids=[
            "empty",
            "single",
            "one-repeated",
            "duplicate-heavy",
            "wide-negative",
            "mixed-sign",
            "rows",
            "int32",
        ],
    )
    def test_equals_np_unique(self, values):
        got = sorted_unique(values)
        want = np.unique(values)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1)))
    def test_equals_np_unique_on_any_int64_keys(self, keys):
        values = np.array(keys, dtype=np.int64)
        assert sorted_unique(values).tobytes() == np.unique(values).tobytes()
