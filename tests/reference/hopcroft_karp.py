"""Hopcroft–Karp exact maximum matching on bipartite graphs.

Used as the exact reference for approximation-ratio tests on bipartite
workloads, and as an independent check of the Blossom baseline.  Includes
a 2-coloring pass so callers can hand in any graph that happens to be
bipartite.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.graph.graph import Edge, Graph, canonical_edge

_INFINITY = float("inf")


def bipartition(graph: Graph) -> Optional[Tuple[Set[int], Set[int]]]:
    """2-color ``graph``; returns the two sides or ``None`` if odd cycle."""
    color: Dict[int, int] = {}
    for start in graph.vertices():
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in graph.neighbors_view(v):
                if u not in color:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    left = {v for v, c in color.items() if c == 0}
    right = {v for v, c in color.items() if c == 1}
    return left, right


def hopcroft_karp_matching(graph: Graph) -> Set[Edge]:
    """Exact maximum matching of a bipartite ``graph``.

    Raises ``ValueError`` when the graph is not bipartite — use the
    Blossom baseline for general graphs.
    """
    sides = bipartition(graph)
    if sides is None:
        raise ValueError("graph is not bipartite; use blossom_maximum_matching")
    left, _right = sides

    mate: Dict[int, Optional[int]] = {v: None for v in graph.vertices()}
    distance: Dict[int, float] = {}

    def bfs() -> bool:
        queue = deque()
        for v in left:
            if mate[v] is None:
                distance[v] = 0.0
                queue.append(v)
            else:
                distance[v] = _INFINITY
        found_free = False
        while queue:
            v = queue.popleft()
            for u in graph.neighbors_view(v):
                partner = mate[u]
                if partner is None:
                    found_free = True
                elif distance[partner] == _INFINITY:
                    distance[partner] = distance[v] + 1.0
                    queue.append(partner)
        return found_free

    def dfs(v: int) -> bool:
        for u in graph.neighbors_view(v):
            partner = mate[u]
            if partner is None or (
                distance.get(partner) == distance[v] + 1.0 and dfs(partner)
            ):
                mate[v] = u
                mate[u] = v
                return True
        distance[v] = _INFINITY
        return False

    while bfs():
        for v in left:
            if mate[v] is None:
                dfs(v)

    return {
        canonical_edge(v, mate[v])  # type: ignore[arg-type]
        for v in left
        if mate[v] is not None
    }
