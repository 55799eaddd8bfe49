"""Edge-weighted graphs, used by the weighted matching reduction (Cor 1.4)."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

from repro.graph.csr import edge_rows
from repro.graph.graph import Edge, Graph, canonical_edge


class WeightedGraph:
    """An undirected simple graph with positive edge weights.

    Composition over inheritance: wraps a :class:`Graph` plus a weight map,
    so every unweighted algorithm can run on :attr:`structure` directly.
    """

    __slots__ = ("_graph", "_weights")

    def __init__(
        self,
        num_vertices: int,
        weighted_edges: Iterable[Tuple[int, int, float]] = (),
    ) -> None:
        self._graph = Graph(num_vertices)
        self._weights: Dict[Edge, float] = {}
        for u, v, w in weighted_edges:
            self.add_edge(u, v, w)

    @classmethod
    def unit_weights(cls, graph: Graph) -> "WeightedGraph":
        """Weight 1.0 on every edge of ``graph``, shared as :attr:`structure`."""
        weighted = cls(0)
        weighted._graph = graph
        weighted._weights = dict.fromkeys(graph.edges(), 1.0)
        return weighted

    @property
    def structure(self) -> Graph:
        """The underlying unweighted graph (shared, do not mutate)."""
        return self._graph

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return self._graph.num_edges

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Insert edge ``{u, v}`` with ``weight > 0``."""
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight!r}")
        self._graph.add_edge(u, v)
        self._weights[canonical_edge(u, v)] = float(weight)

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``."""
        return self._weights[canonical_edge(u, v)]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(u, v, weight)`` triples in canonical edge order."""
        for u, v in self._graph.edges():
            yield u, v, self._weights[(u, v)]

    def weights_of(self, edges: Sequence[Edge]) -> np.ndarray:
        """Weights of the canonical ``edges`` as one float64 array."""
        return np.fromiter(
            map(self._weights.__getitem__, edges), dtype=np.float64, count=len(edges)
        )

    def max_weight(self) -> float:
        """Largest edge weight (0.0 on an edgeless graph)."""
        return max(self._weights.values(), default=0.0)

    def min_weight(self) -> float:
        """Smallest edge weight (0.0 on an edgeless graph)."""
        return min(self._weights.values(), default=0.0)

    def matching_weight(self, matching: Iterable[Edge]) -> float:
        """Total weight of a set of edges, summed left to right in canonical
        ``(u, v)`` order whatever order or orientation they come in."""
        edges = sorted(map(tuple, np.sort(edge_rows(matching), axis=1).tolist()))
        return sum(self.weights_of(edges).tolist())

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.num_vertices}, m={self.num_edges})"
