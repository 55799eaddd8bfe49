"""Fractional matching result container.

Both the centralized reference algorithms and the MPC simulation produce a
:class:`FractionalMatching`: an edge-weight vector plus the vertex cover of
frozen vertices.  The container owns the LP-side bookkeeping (vertex loads,
validity, the high-load candidate set fed to the rounding procedure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Set, Tuple

from repro.graph.graph import Edge, Graph, canonical_edge
from repro.graph.properties import is_valid_fractional_matching, vertex_loads


@dataclass
class FractionalMatching:
    """An edge-weight vector ``x`` with its supporting metadata.

    Attributes
    ----------
    graph:
        The graph the weights live on (weights may cover a subset of edges;
        absent edges have weight 0).
    weights:
        Map from canonical edge to ``x_e >= 0``.
    vertex_cover:
        The frozen-vertex set the algorithm reports as its vertex cover.
    """

    graph: Graph
    weights: Dict[Edge, float]
    vertex_cover: Set[int] = field(default_factory=set)

    def weight(self) -> float:
        """Total fractional weight ``sum_e x_e``."""
        return sum(self.weights.values())

    def vertex_loads(self) -> Dict[int, float]:
        """Per-vertex load ``y_v = sum_{e ∋ v} x_e`` (zero-load omitted)."""
        return vertex_loads(self.weights)

    def is_valid(self, tolerance: float = 1e-9) -> bool:
        """LP feasibility: nonnegative weights on real edges, loads ≤ 1."""
        return is_valid_fractional_matching(self.graph, self.weights, tolerance)

    def heavy_vertices(self, minimum_load: float) -> Set[int]:
        """Vertices with load at least ``minimum_load``.

        Lemma 4.2 guarantees at least ``|C|/3`` cover vertices reach load
        ``1 - 5ε``; that set is the rounding candidate set ``C~`` of
        Lemma 5.1.
        """
        loads = self.vertex_loads()
        return {v for v, load in loads.items() if load >= minimum_load}

    def restricted_to(self, vertices: Set[int]) -> "FractionalMatching":
        """The sub-fractional-matching on edges inside ``vertices``."""
        kept = {
            e: x
            for e, x in self.weights.items()
            if e[0] in vertices and e[1] in vertices
        }
        return FractionalMatching(
            graph=self.graph,
            weights=kept,
            vertex_cover=self.vertex_cover & vertices,
        )
