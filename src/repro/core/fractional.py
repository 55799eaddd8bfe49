"""Fractional matching result container.

Both the centralized reference algorithms and the MPC simulation produce a
:class:`FractionalMatching`: the weight vector ``x`` over canonical edge
rows plus the vertex cover of frozen vertices.  The container owns the
LP-side bookkeeping (vertex loads, validity, the high-load candidate set
fed to the rounding procedure).

Layout.  ``edges`` is an int64 ``(k, 2)`` array of canonical ``u < v``
rows in :meth:`~repro.graph.csr.CSRGraph.edge_array` order (ascending),
and ``x`` is the aligned float64 weight array; absent edges have weight 0.

Float association.  :meth:`FractionalMatching.weight` is the left-to-right
Python ``sum`` in row order.  :meth:`FractionalMatching.vertex_loads` is
one ``np.bincount`` over the interleaved ``(u0, v0, u1, v1, ...)``
endpoints, so each vertex adds its incident weights in row order, starting
from zero (``bincount(u) + bincount(v)`` would not).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.properties import is_valid_fractional_matching


@dataclass
class FractionalMatching:
    """An edge-weight vector ``x`` with its supporting metadata.

    Attributes
    ----------
    graph:
        The graph the weights live on.
    edges:
        int64 ``(k, 2)`` canonical edge rows (``u < v``), ascending.
    x:
        float64 weights ``x_e >= 0`` aligned with ``edges``.
    vertex_cover:
        The reported cover as ascending int64 ids: the frozen vertices
        (plus the Line (i) removals, for MPC-Simulation).
    """

    graph: CSRGraph
    edges: np.ndarray
    x: np.ndarray
    vertex_cover: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @classmethod
    def empty(cls, graph: CSRGraph) -> "FractionalMatching":
        """No weighted edges and an empty cover."""
        return cls(graph, np.empty((0, 2), dtype=np.int64), np.empty(0))

    def weight(self) -> float:
        """Total fractional weight ``sum_e x_e``."""
        return sum(self.x.tolist())

    def vertex_loads(self) -> np.ndarray:
        """Per-vertex load ``y_v = sum_{e ∋ v} x_e`` over ``range(n)``."""
        return np.bincount(
            self.edges.ravel(),
            weights=np.repeat(self.x, 2),
            minlength=self.graph.num_vertices,
        )

    def is_valid(self, tolerance: float = 1e-9) -> bool:
        """LP feasibility: nonnegative weights on real edges, loads ≤ 1."""
        return is_valid_fractional_matching(
            self.graph, self.edges, self.x, tolerance
        )

    def heavy_vertices(self, minimum_load: float) -> np.ndarray:
        """Sorted ids of the vertices on a listed edge with load at least
        ``minimum_load``.

        Lemma 4.2 guarantees at least ``|C|/3`` cover vertices reach load
        ``1 - 5ε``; that set is the rounding candidate set ``C~`` of
        Lemma 5.1.  Only vertices on a listed edge have a load, which
        matters when ``minimum_load <= 0``.
        """
        ends = self.edges.ravel()
        present = np.bincount(ends, minlength=self.graph.num_vertices) > 0
        return np.flatnonzero(present & (self.vertex_loads() >= minimum_load))
