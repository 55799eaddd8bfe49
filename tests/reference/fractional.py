"""Dict form of a fractional matching: the test oracle for the arrays.

The library keeps a fractional matching as canonical edge rows ``edges``
and aligned weights ``x`` (:class:`repro.core.fractional.FractionalMatching`).
This module keeps the ``{(u, v): x}`` map it replaced, with the scalar
loops that define loads, total weight, the heavy set and the canonical
report triples, so tests can hold the arrays to them bit for bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Set, Tuple

import numpy as np

from repro.core.fractional import FractionalMatching
from repro.graph.csr import as_csr
from repro.graph.graph import Edge


def weights_of(fractional: FractionalMatching) -> Dict[Edge, float]:
    """The ``{(u, v): x}`` map of ``fractional``, in row order."""
    edges = fractional.edges
    return dict(
        zip(zip(edges[:, 0].tolist(), edges[:, 1].tolist()), fractional.x.tolist())
    )


def edge_arrays(weights: Mapping[Edge, float]) -> Tuple[np.ndarray, np.ndarray]:
    """The map as ``(edges, x)`` arrays, in map order."""
    edges = np.array(list(weights), dtype=np.int64).reshape(-1, 2)
    return edges, np.array(list(weights.values()), dtype=np.float64)


def from_weights(
    graph, weights: Mapping[Edge, float], vertex_cover: Iterable[int] = ()
) -> FractionalMatching:
    """A :class:`FractionalMatching` whose rows are the map's, in map order."""
    return FractionalMatching(as_csr(graph), *edge_arrays(weights), set(vertex_cover))


def fractional_matching_weight(weights: Mapping[Edge, float]) -> float:
    """Total weight ``sum_e x_e`` of a fractional matching."""
    return sum(weights.values())


def vertex_loads(weights: Mapping[Edge, float]) -> Dict[int, float]:
    """Per-vertex load ``y_v = sum_{e ∋ v} x_e``."""
    loads: Dict[int, float] = {}
    for (u, v), x in weights.items():
        loads[u] = loads.get(u, 0.0) + x
        loads[v] = loads.get(v, 0.0) + x
    return loads


def heavy_vertices(weights: Mapping[Edge, float], minimum_load: float) -> Set[int]:
    """Vertices on a listed edge with load at least ``minimum_load``."""
    return {v for v, load in vertex_loads(weights).items() if load >= minimum_load}


def canonical_triples(weights: Mapping[Edge, float]) -> List[list]:
    """The report's ``[u, v, x]`` triples, sorted by ``(u, v)``, ``u < v``."""
    return sorted([min(u, v), max(u, v), x] for (u, v), x in weights.items())
