"""Property tests for the dynamic-graph overlay and incremental maintainers.

Two families of properties:

* **overlay correctness** — streaming any batch sequence through
  :class:`DynamicGraph` and compacting is equivalent to rebuilding the
  CSR from a reference :class:`Graph` mutated edge-by-edge (the overlay
  is pure bookkeeping, never semantics);
* **maintainer conformance** — after every epoch of a random churn
  sequence, each maintainer's solution satisfies the task's ground-truth
  invariants (the same checkers the verify subsystem certifies), and the
  maintained quality agrees with a from-scratch re-solve within the
  differential agreement band.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.properties import (
    is_maximal_independent_set,
    is_maximal_matching,
    is_valid_fractional_matching,
    is_vertex_cover,
)
from repro.stream.dynamic import DynamicGraph
from repro.stream.maintain import make_maintainer
from repro.verify import agreement_band
from repro.verify.checkers import fractional_columns
from tests.property.strategies import graphs_with_batches

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Fewer examples for the maintainer properties: every epoch re-solves
# from scratch for the differential comparison.
_SLOW_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _mutate_reference(reference: Graph, batch) -> Graph:
    """Apply a batch to the set-based reference implementation."""
    grown = Graph(reference.num_vertices + batch.new_vertices)
    for u, v in reference.edges():
        grown.add_edge(u, v)
    for u, v in batch.deletions:
        if grown.has_edge(int(u), int(v)):
            grown.remove_edge(int(u), int(v))
    for u, v in batch.insertions:
        grown.add_edge(int(u), int(v))
    return grown


class TestOverlayEquivalence:
    @_SETTINGS
    @given(case=graphs_with_batches())
    def test_apply_then_compact_equals_rebuilt_csr(self, case):
        graph, batches = case
        dyn = DynamicGraph(graph)
        reference = graph
        for batch in batches:
            dyn.add_vertices(batch.new_vertices)
            dyn.apply_edges(batch.insertions, batch.deletions)
            reference = _mutate_reference(reference, batch)
            assert dyn.num_edges == reference.num_edges
            assert dyn.num_vertices == reference.num_vertices
        compacted = dyn.compact()
        assert compacted == CSRGraph.from_graph(reference)

    @_SETTINGS
    @given(case=graphs_with_batches())
    def test_snapshot_agrees_without_compaction(self, case):
        graph, batches = case
        dyn = DynamicGraph(graph, compact_fraction=None)
        reference = graph
        for batch in batches:
            dyn.add_vertices(batch.new_vertices)
            dyn.apply_edges(batch.insertions, batch.deletions)
            reference = _mutate_reference(reference, batch)
        assert dyn.snapshot() == CSRGraph.from_graph(reference)
        # Point queries agree with the reference on every vertex.
        for v in reference.vertices():
            assert dyn.degree(v) == reference.degree(v)
            assert set(dyn.neighbors(v).tolist()) == set(
                reference.neighbors_view(v)
            )

    @_SETTINGS
    @given(case=graphs_with_batches(), mid=st.integers(min_value=0, max_value=4))
    def test_compaction_point_is_irrelevant(self, case, mid):
        graph, batches = case
        straight = DynamicGraph(graph, compact_fraction=None)
        compacting = DynamicGraph(graph, compact_fraction=None)
        for index, batch in enumerate(batches):
            for dyn in (straight, compacting):
                dyn.add_vertices(batch.new_vertices)
                dyn.apply_edges(batch.insertions, batch.deletions)
            if index == mid:
                compacting.compact()
        assert straight.snapshot() == compacting.snapshot()


class TestMaintainerConformance:
    @_SLOW_SETTINGS
    @given(case=graphs_with_batches(max_vertices=20, max_batches=4))
    def test_mis_invariants_every_epoch(self, case):
        graph, batches = case
        maintainer = make_maintainer("mis", graph, backend="greedy", seed=0)
        maintainer.initialize()
        for batch in batches:
            maintainer.step(batch)
            current = maintainer.graph.to_graph()
            assert is_maximal_independent_set(
                current, set(maintainer.solution())
            )

    @_SLOW_SETTINGS
    @given(case=graphs_with_batches(max_vertices=20, max_batches=4))
    def test_matching_agrees_with_full_resolve(self, case):
        graph, batches = case
        maintainer = make_maintainer("matching", graph, backend="greedy", seed=0)
        maintainer.initialize()
        band = agreement_band("matching")
        for batch in batches:
            maintainer.step(batch)
            current = maintainer.graph.to_graph()
            edges = maintainer.matched_edges()
            assert is_maximal_matching(current, edges)
            # Differential: both are maximal matchings of the same
            # graph, so sizes differ by at most the (2 + O(eps)) band.
            fresh = make_maintainer("matching", current, backend="greedy", seed=1)
            fresh.initialize()
            low, high = sorted([max(len(edges), 1), max(fresh.size(), 1)])
            assert high <= band * low + 1e-6

    @_SLOW_SETTINGS
    @given(case=graphs_with_batches(max_vertices=20, max_batches=4))
    def test_vertex_cover_covers_every_epoch(self, case):
        graph, batches = case
        maintainer = make_maintainer(
            "vertex_cover", graph, backend="greedy", seed=0
        )
        maintainer.initialize()
        for batch in batches:
            maintainer.step(batch)
            current = maintainer.graph.to_graph()
            assert is_vertex_cover(current, set(maintainer.solution()))

    @_SLOW_SETTINGS
    @given(case=graphs_with_batches(max_vertices=20, max_batches=4))
    def test_fractional_feasible_and_saturated_every_epoch(self, case):
        graph, batches = case
        maintainer = make_maintainer(
            "fractional_matching", graph, backend="central", seed=0
        )
        maintainer.initialize()
        for batch in batches:
            maintainer.step(batch)
            current = maintainer.graph.to_graph()
            edges, x = fractional_columns(maintainer.solution())
            assert is_valid_fractional_matching(current, edges, x, tolerance=1e-6)
            # The quality invariant behind the band: every edge sees a
            # saturated endpoint, so W >= nu / 2.
            loads = maintainer.loads
            for u, v in current.edges():
                assert max(loads[u], loads[v]) >= 1.0 - 1e-6
