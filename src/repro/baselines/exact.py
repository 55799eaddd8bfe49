"""Brute-force exact solvers for tiny graphs.

Approximation-ratio tests need ground truth.  For matchings the Blossom
baseline scales to thousands of vertices; for MIS / vertex cover (NP-hard)
and weighted matching these branch-and-bound / enumeration solvers anchor
the tests at small sizes, where exactness is checkable by hand.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.graph.graph import Edge, Graph, canonical_edge
from repro.graph.weighted import WeightedGraph

_MAX_BRUTE_FORCE_VERTICES = 40


def exact_maximum_independent_set(graph: Graph) -> Set[int]:
    """A maximum independent set, by branch and bound on max-degree vertices.

    Exponential time; guarded to ``n <= 40``.
    """
    if graph.num_vertices > _MAX_BRUTE_FORCE_VERTICES:
        raise ValueError(
            f"exact MIS limited to n <= {_MAX_BRUTE_FORCE_VERTICES}, "
            f"got {graph.num_vertices}"
        )
    adjacency = {v: set(graph.neighbors_view(v)) for v in graph.vertices()}

    def solve(candidates: Set[int]) -> Set[int]:
        if not candidates:
            return set()
        v = max(candidates, key=lambda x: len(adjacency[x] & candidates))
        if not adjacency[v] & candidates:
            # Remaining candidates are pairwise non-adjacent via v? Not
            # necessarily overall, but v itself is safe to take greedily.
            return {v} | solve(candidates - {v})
        with_v = {v} | solve(candidates - {v} - adjacency[v])
        without_v = solve(candidates - {v})
        return with_v if len(with_v) >= len(without_v) else without_v

    return solve(set(graph.vertices()))


def brute_force_minimum_vertex_cover(graph: Graph) -> Set[int]:
    """A minimum vertex cover via the complement of a maximum IS."""
    best_is = exact_maximum_independent_set(graph)
    return set(graph.vertices()) - best_is


def brute_force_maximum_weight_matching(
    graph: WeightedGraph,
) -> Tuple[Set[Edge], float]:
    """Maximum-weight matching by exhaustive edge branching (tiny graphs)."""
    edges = [(canonical_edge(u, v), w) for u, v, w in graph.edges()]
    if len(edges) > 2 * _MAX_BRUTE_FORCE_VERTICES:
        raise ValueError("exact weighted matching limited to tiny graphs")

    best_edges: Set[Edge] = set()
    best_weight = 0.0

    def solve(index: int, used: Set[int], current: Set[Edge], weight: float) -> None:
        nonlocal best_edges, best_weight
        if index == len(edges):
            if weight > best_weight:
                best_weight = weight
                best_edges = set(current)
            return
        (u, v), w = edges[index]
        if u not in used and v not in used:
            current.add((u, v))
            used.add(u)
            used.add(v)
            solve(index + 1, used, current, weight + w)
            current.remove((u, v))
            used.discard(u)
            used.discard(v)
        solve(index + 1, used, current, weight)

    solve(0, set(), set(), 0.0)
    return best_edges, best_weight
