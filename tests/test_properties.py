"""Unit tests for the solution validators.

The fixed cases pin known answers; the property-based classes at the end
(driven by the shared strategies in ``tests/property/strategies.py``)
check the validators against independently-constructed witnesses on
random graphs — a greedily built maximal object must pass, and a
perturbed one must fail.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph, canonical_edge
from repro.graph.properties import (
    is_independent_set,
    is_matching,
    is_maximal_independent_set,
    is_maximal_matching,
    is_valid_fractional_matching,
    is_vertex_cover,
)
from tests.property.strategies import dense_pair_graphs, graphs, graphs_with_subsets
from tests.reference.cover import matching_vertices
from tests.reference.fractional import (
    edge_arrays,
    fractional_matching_weight,
    vertex_loads,
)

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def greedy_mis_witness(graph: Graph) -> set:
    """Smallest-vertex-first maximal independent set."""
    chosen: set = set()
    blocked: set = set()
    for v in graph.vertices():
        if v not in blocked:
            chosen.add(v)
            blocked.add(v)
            blocked |= graph.neighbors_view(v)
    return chosen


def greedy_matching_witness(graph: Graph) -> set:
    """First-fit maximal matching over the canonical edge order."""
    matched: set = set()
    matching: set = set()
    for u, v in graph.edge_list():
        if u not in matched and v not in matched:
            matching.add((u, v))
            matched.add(u)
            matched.add(v)
    return matching


# -- set-based reference validators -------------------------------------------
#
# The library validators read CSR only; these are the plain set-and-loop
# definitions they are checked against (``TestCSRAgreement``).


def reference_is_independent_set(graph: Graph, vertex_set) -> bool:
    chosen = set(vertex_set)
    return not any(
        u in chosen for v in chosen for u in graph.neighbors_view(v)
    )


def reference_is_maximal_independent_set(graph: Graph, vertex_set) -> bool:
    chosen = set(vertex_set)
    if not reference_is_independent_set(graph, chosen):
        return False
    return all(
        v in chosen or any(u in chosen for u in graph.neighbors_view(v))
        for v in graph.vertices()
    )


def reference_is_matching(graph: Graph, edges) -> bool:
    used: set = set()
    for u, v in edges:
        if not graph.has_edge(u, v) or u in used or v in used:
            return False
        used.update((u, v))
    return True


def reference_is_maximal_matching(graph: Graph, edges) -> bool:
    matching = [canonical_edge(u, v) for u, v in edges]
    if not reference_is_matching(graph, matching):
        return False
    matched = matching_vertices(matching)
    return all(u in matched or v in matched for u, v in graph.edges())


def reference_is_vertex_cover(graph: Graph, vertex_set) -> bool:
    cover = set(vertex_set)
    return all(u in cover or v in cover for u, v in graph.edges())


def is_valid_fractional_map(graph, weights, tolerance: float = 1e-9) -> bool:
    """The library validator on the map's ``(edges, x)`` arrays."""
    return is_valid_fractional_matching(graph, *edge_arrays(weights), tolerance)


def reference_is_valid_fractional_matching(
    graph: Graph, weights, tolerance: float = 1e-9
) -> bool:
    loads: dict = {}
    for (u, v), x in weights.items():
        if x < -tolerance or not graph.has_edge(u, v):
            return False
        loads[u] = loads.get(u, 0.0) + x
        loads[v] = loads.get(v, 0.0) + x
    return all(load <= 1.0 + tolerance for load in loads.values())


@pytest.fixture
def square() -> Graph:
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


class TestIndependentSet:
    def test_empty_is_independent(self, square):
        assert is_independent_set(square, set())

    def test_diagonal_is_independent(self, square):
        assert is_independent_set(square, {0, 2})

    def test_adjacent_not_independent(self, square):
        assert not is_independent_set(square, {0, 1})

    def test_maximality(self, square):
        assert is_maximal_independent_set(square, {0, 2})
        assert not is_maximal_independent_set(square, {0})
        assert not is_maximal_independent_set(square, {0, 1})

    def test_isolated_vertices_must_be_included(self):
        g = Graph(3, [(0, 1)])
        assert not is_maximal_independent_set(g, {0})
        assert is_maximal_independent_set(g, {0, 2})


class TestMatching:
    def test_empty_matching(self, square):
        assert is_matching(square, set())

    def test_valid_matching(self, square):
        assert is_matching(square, {(0, 1), (2, 3)})

    def test_shared_vertex_rejected(self, square):
        assert not is_matching(square, {(0, 1), (1, 2)})

    def test_non_edge_rejected(self, square):
        assert not is_matching(square, {(0, 2)})

    def test_maximal_matching(self, square):
        assert is_maximal_matching(square, {(0, 1), (2, 3)})
        assert not is_maximal_matching(square, {(0, 1)})

    def test_single_edge_maximal_on_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert is_maximal_matching(g, {(0, 1)})

    def test_matching_vertices(self):
        assert matching_vertices({(0, 1), (2, 3)}) == {0, 1, 2, 3}


class TestVertexCover:
    def test_full_cover(self, square):
        assert is_vertex_cover(square, {0, 1, 2, 3})

    def test_minimum_cover(self, square):
        assert is_vertex_cover(square, {0, 2})
        assert is_vertex_cover(square, {1, 3})

    def test_non_cover(self, square):
        assert not is_vertex_cover(square, {0})

    def test_empty_cover_on_edgeless(self):
        assert is_vertex_cover(Graph(5), set())


class TestFractional:
    def test_valid(self, square):
        weights = {(0, 1): 0.5, (1, 2): 0.5, (2, 3): 0.5, (0, 3): 0.5}
        assert is_valid_fractional_map(square, weights)
        assert fractional_matching_weight(weights) == pytest.approx(2.0)

    def test_overloaded_vertex(self, square):
        weights = {(0, 1): 0.8, (1, 2): 0.8}
        assert not is_valid_fractional_map(square, weights)

    def test_negative_weight(self, square):
        assert not is_valid_fractional_map(square, {(0, 1): -0.1})

    def test_non_edge(self, square):
        assert not is_valid_fractional_map(square, {(0, 2): 0.1})

    def test_vertex_loads(self, square):
        loads = vertex_loads({(0, 1): 0.25, (1, 2): 0.5})
        assert loads[1] == pytest.approx(0.75)
        assert loads[0] == pytest.approx(0.25)


class TestValidatorProperties:
    """Validators vs independently-constructed witnesses on random graphs."""

    @_SETTINGS
    @given(graph=graphs())
    def test_greedy_mis_accepted(self, graph: Graph):
        witness = greedy_mis_witness(graph)
        assert is_independent_set(graph, witness)
        assert is_maximal_independent_set(graph, witness)

    @_SETTINGS
    @given(graph=graphs(min_vertices=2, min_edges=1))
    def test_shrunk_mis_rejected(self, graph: Graph):
        witness = greedy_mis_witness(graph)
        # Removing any covered vertex breaks maximality (its neighborhood
        # no longer touches the set) — or independence stays but some
        # vertex is addable.
        smaller = witness - {min(witness)}
        assert not is_maximal_independent_set(graph, smaller) or not smaller

    @_SETTINGS
    @given(graph=graphs())
    def test_greedy_matching_accepted(self, graph: Graph):
        witness = greedy_matching_witness(graph)
        assert is_matching(graph, witness)
        assert is_maximal_matching(graph, witness)

    @_SETTINGS
    @given(graph=graphs(min_vertices=2, min_edges=1))
    def test_overlapping_matching_rejected(self, graph: Graph):
        u, v = next(iter(graph.edges()))
        # Duplicate an endpoint: {u,v} plus any other edge at u or v.
        other = next(
            (w for w in graph.neighbors_view(u) if w != v),
            next((w for w in graph.neighbors_view(v) if w != u), None),
        )
        assume(other is not None)
        anchor = u if other in graph.neighbors_view(u) else v
        assert not is_matching(
            graph, [canonical_edge(u, v), canonical_edge(anchor, other)]
        )

    @_SETTINGS
    @given(graph=dense_pair_graphs())
    def test_matching_endpoints_cover(self, graph: Graph):
        witness = greedy_matching_witness(graph)
        cover = matching_vertices(witness)
        # Endpoints of a maximal matching form a vertex cover (the
        # classic 2-approximation argument).
        assert is_vertex_cover(graph, cover)

    @_SETTINGS
    @given(graph=graphs(min_vertices=2, min_edges=1))
    def test_cover_without_edge_rejected(self, graph: Graph):
        u, v = next(iter(graph.edges()))
        cover = set(graph.vertices()) - {u, v}
        assert not is_vertex_cover(graph, cover)

    @_SETTINGS
    @given(graph=graphs())
    def test_uniform_fractional_matching_feasible(self, graph: Graph):
        # x_e = 1/max(1, Δ) keeps every vertex load at most 1.
        cap = max(1, graph.max_degree())
        weights = {edge: 1.0 / cap for edge in graph.edges()}
        assert is_valid_fractional_map(graph, weights)
        assert fractional_matching_weight(weights) == pytest.approx(
            graph.num_edges / cap
        )
        loads = vertex_loads(weights)
        assert all(load <= 1.0 + 1e-9 for load in loads.values())

    @_SETTINGS
    @given(graph=graphs(min_vertices=2, min_edges=1))
    def test_overloaded_fractional_rejected(self, graph: Graph):
        u, v = next(iter(graph.edges()))
        weights = {canonical_edge(u, v): 1.5}
        assert not is_valid_fractional_map(graph, weights)


class TestCSRAgreement:
    """The CSR validators decide exactly what the set-based references decide.

    Each case runs a library validator on a :class:`Graph` and on its
    :class:`CSRGraph`, and the matching ``reference_*`` definition above on
    the :class:`Graph`, for a valid witness and for corrupted copies.
    """

    @_SETTINGS
    @given(pair=graphs_with_subsets())
    def test_vertex_set_validators_agree(self, pair):
        graph, subset = pair
        csr = CSRGraph.from_graph(graph)
        mis = greedy_mis_witness(graph)
        cover = set(graph.vertices()) - mis  # complement of an independent set
        valid = [(is_independent_set, mis), (is_maximal_independent_set, mis)]
        valid.append((is_vertex_cover, cover))
        for validator, chosen in valid:
            assert validator(graph, chosen) and validator(csr, chosen)
        candidates = [subset, mis, cover]
        if cover:
            candidates.append(mis | {min(cover)})  # adds an adjacent vertex
        if mis:
            candidates.append(mis - {min(mis)})
        edge = next(iter(graph.edges()), None)
        if edge is not None:
            candidates.append(cover - set(edge))  # leaves the edge uncovered
        for chosen in candidates:
            for validator, reference in (
                (is_independent_set, reference_is_independent_set),
                (is_maximal_independent_set, reference_is_maximal_independent_set),
                (is_vertex_cover, reference_is_vertex_cover),
            ):
                expected = reference(graph, chosen)
                assert validator(graph, chosen) == expected
                assert validator(csr, chosen) == expected

    @_SETTINGS
    @given(graph=graphs(min_vertices=2))
    def test_matching_validators_agree(self, graph: Graph):
        csr = CSRGraph.from_graph(graph)
        witness = sorted(greedy_matching_witness(graph))
        n = graph.num_vertices
        non_edges = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if not graph.has_edge(u, v)
        ]
        candidates = [[], witness, [(0, 0)], [(0, n)], [(-1, 0)]]
        if witness:
            u, v = witness[0]
            candidates.append(witness[1:])  # may lose maximality
            candidates.append(witness + [(v, u)])  # same edge twice
            candidates.append([(v, u)] + witness[1:])  # reversed orientation
            extra = next(
                (w for w in graph.neighbors_view(u) if w != v), None
            )
            if extra is not None:
                candidates.append(witness + [canonical_edge(u, extra)])
        if non_edges:
            candidates.append(witness + [non_edges[0]])
            candidates.append([non_edges[0]])
        for edges in candidates:
            for validator, reference in (
                (is_matching, reference_is_matching),
                (is_maximal_matching, reference_is_maximal_matching),
            ):
                expected = reference(graph, edges)
                assert validator(graph, edges) == expected
                assert validator(csr, edges) == expected

    @_SETTINGS
    @given(graph=graphs(min_vertices=2))
    def test_fractional_validator_agrees(self, graph: Graph):
        csr = CSRGraph.from_graph(graph)
        cap = max(1, graph.max_degree())
        uniform = {edge: 1.0 / cap for edge in graph.edges()}
        assert is_valid_fractional_map(graph, uniform)
        assert is_valid_fractional_map(csr, uniform)
        assert reference_is_valid_fractional_matching(graph, uniform)
        n = graph.num_vertices
        non_edges = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if not graph.has_edge(u, v)
        ]
        corrupted = [{(0, 0): 0.1}, {(0, n): 0.1}]
        if non_edges:
            corrupted.append({**uniform, non_edges[0]: 0.1})
        if uniform:
            first = next(iter(uniform))
            corrupted.append({**uniform, first: -0.5})
            corrupted.append({**uniform, first: 1.5})
        for weights in corrupted:
            assert not reference_is_valid_fractional_matching(graph, weights)
            assert not is_valid_fractional_map(graph, weights)
            assert not is_valid_fractional_map(csr, weights)
