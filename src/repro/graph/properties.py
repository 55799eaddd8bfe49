"""Graph-solution validators.

Every algorithm's output is checked against these predicates in the test
suite; they are the ground-truth definitions of the objects the paper
computes (Section 2, Preliminaries).

Each predicate reads the CSR form (:func:`~repro.graph.csr.as_csr`, which
a :class:`Graph` memoizes) through vectorized passes over
:meth:`~repro.graph.csr.CSRGraph.adjacency_chunks` — O(chunk) residency,
no per-vertex Python loops.  That is what lets the n=10M counter-mode
solutions be validated at all (see OUT_OF_CORE.md).  Solutions are read
in the solvers' array forms as they are; other collections go through
:func:`~repro.graph.csr.edge_rows` or :func:`~repro.graph.csr.vertex_ids`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from repro.graph.csr import CSRGraph, as_csr, edge_rows, vertex_ids
from repro.graph.graph import Edge, Graph

GraphLike = Union[Graph, CSRGraph]


def _vertex_mask(n: int, vertex_set: Iterable[int]) -> np.ndarray:
    """Boolean membership mask over ``range(n)`` (raises if out of range)."""
    mask = np.zeros(n, dtype=bool)
    mask[vertex_ids(vertex_set)] = True
    return mask


def _are_edges(graph: CSRGraph, eu: np.ndarray, ev: np.ndarray) -> bool:
    """Whether every ``(eu[i], ev[i])`` is an edge of ``graph``.

    Membership is decided by sorted-key intersection against the forward
    (``src < dst``) slots of each adjacency chunk — each canonical edge
    appears in exactly one chunk, so one pass marks every resolvable query.
    """
    n = graph.num_vertices
    if not bool(np.all((eu >= 0) & (eu < n) & (ev >= 0) & (ev < n))):
        return False
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)
    if bool(np.any(lo == hi)):
        return False  # self-loops are never edges of a simple graph
    query = np.sort(lo * np.int64(n) + hi)
    found = np.zeros(len(query), dtype=bool)
    for src, dst in graph.adjacency_chunks():
        forward = src < dst
        slot_keys = src[forward] * np.int64(n) + dst[forward]
        if len(slot_keys) == 0:
            continue
        pos = np.searchsorted(slot_keys, query)
        hit = pos < len(slot_keys)
        hit[hit] = slot_keys[pos[hit]] == query[hit]
        found |= hit
    return bool(np.all(found))


def is_independent_set(graph: GraphLike, vertex_set: Iterable[int]) -> bool:
    """Whether no two vertices of ``vertex_set`` are adjacent."""
    graph = as_csr(graph)
    chosen = _vertex_mask(graph.num_vertices, vertex_set)
    return not any(
        bool(np.any(chosen[src] & chosen[dst]))
        for src, dst in graph.adjacency_chunks()
    )


def is_maximal_independent_set(
    graph: GraphLike, vertex_set: Iterable[int]
) -> bool:
    """Whether ``vertex_set`` is independent and no vertex can be added."""
    # Single adjacency pass: an edge inside the set refutes independence;
    # otherwise every out-of-set vertex needs a chosen neighbor (isolated
    # unchosen vertices correctly fail).
    graph = as_csr(graph)
    chosen = _vertex_mask(graph.num_vertices, vertex_set)
    covered = np.zeros(graph.num_vertices, dtype=bool)
    for src, dst in graph.adjacency_chunks():
        if np.any(chosen[src] & chosen[dst]):
            return False
        covered[src[chosen[dst]]] = True
    return bool(np.all(chosen | covered))


def _matching_endpoints(
    graph: CSRGraph, edges: Iterable[Edge]
) -> Optional[np.ndarray]:
    """All endpoints of ``edges`` if they form a matching of ``graph``."""
    rows = edge_rows(edges)
    if not _are_edges(graph, rows[:, 0], rows[:, 1]):
        return None
    ends = rows.ravel()
    return None if bool(np.any(np.bincount(ends) > 1)) else ends


def is_matching(graph: GraphLike, edges: Iterable[Edge]) -> bool:
    """Whether ``edges`` are graph edges and pairwise vertex-disjoint."""
    return _matching_endpoints(as_csr(graph), edges) is not None


def is_maximal_matching(graph: GraphLike, edges: Iterable[Edge]) -> bool:
    """Whether ``edges`` is a matching that no graph edge can extend."""
    graph = as_csr(graph)
    ends = _matching_endpoints(graph, edges)
    # Maximal exactly when the matched vertices cover every edge.
    return ends is not None and is_vertex_cover(graph, ends)


def is_vertex_cover(graph: GraphLike, vertex_set: Iterable[int]) -> bool:
    """Whether every edge has at least one endpoint in ``vertex_set``."""
    graph = as_csr(graph)
    cover = _vertex_mask(graph.num_vertices, vertex_set)
    return not any(
        bool(np.any(~cover[src] & ~cover[dst]))
        for src, dst in graph.adjacency_chunks()
    )


def is_valid_fractional_matching(
    graph: GraphLike, edges: np.ndarray, x: np.ndarray, tolerance: float = 1e-9
) -> bool:
    """Whether edge weights are nonnegative and each vertex's sum is ≤ 1.

    ``edges`` is an int64 ``(k, 2)`` array of endpoint rows and ``x`` the
    aligned weights.  This is the LP-feasibility condition the paper's
    duality argument (Lemma 4.1) rests on; ``tolerance`` absorbs float
    accumulation.
    """
    graph = as_csr(graph)
    if len(x) == 0:
        return True
    n = graph.num_vertices
    eu, ev = edges[:, 0], edges[:, 1]
    if bool(np.any(x < -tolerance)) or not _are_edges(graph, eu, ev):
        return False
    loads = np.bincount(eu, weights=x, minlength=n) + np.bincount(
        ev, weights=x, minlength=n
    )
    return bool(np.all(loads <= 1.0 + tolerance))
