"""Reference oracles: exact optima on instances small enough to afford.

The approximation-ratio checks in :mod:`repro.verify.checkers` compare a
solver's output against the true optimum.  Exact optima come from the
library's baselines — Blossom for maximum matching (polynomial, usable up
to a few hundred vertices) and the brute-force solvers in
:mod:`repro.baselines.exact` (exponential, usable only on tiny graphs).
Each oracle returns ``None`` above its size cap instead of silently
burning CPU; callers record the check as skipped-by-size.  The exact
solvers walk set-based adjacency, so a CSR input (``CSRGraph`` or
``MMapCSRGraph``) under the cap is converted with ``canonical_graph`` first.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.baselines.blossom import maximum_matching_size as _blossom_size
from repro.baselines.exact import (
    brute_force_maximum_weight_matching,
    brute_force_minimum_vertex_cover,
)
from repro.graph.csr import CSRGraph, canonical_graph
from repro.graph.graph import Graph
from repro.graph.weighted import WeightedGraph

# Blossom is O(n^3)-ish: a few hundred vertices stays sub-second.
MATCHING_ORACLE_CAP = 400
# The brute-force solvers enumerate subsets: keep them to toy sizes.
BRUTE_FORCE_VERTEX_CAP = 12
BRUTE_FORCE_EDGE_CAP = 24


def maximum_matching_size(
    graph: Union[Graph, CSRGraph], cap: int = MATCHING_ORACLE_CAP
) -> Optional[int]:
    """Exact maximum-matching size ``ν(G)`` via Blossom, or ``None``."""
    if graph.num_vertices > cap:
        return None
    return _blossom_size(canonical_graph(graph))


def minimum_vertex_cover_size(
    graph: Union[Graph, CSRGraph], cap: int = BRUTE_FORCE_VERTEX_CAP
) -> Optional[int]:
    """Exact minimum vertex-cover size, or ``None`` above the cap."""
    if graph.num_vertices > cap:
        return None
    return len(brute_force_minimum_vertex_cover(canonical_graph(graph)))


def maximum_weight_matching_weight(
    graph: WeightedGraph,
    vertex_cap: int = BRUTE_FORCE_VERTEX_CAP,
    edge_cap: int = BRUTE_FORCE_EDGE_CAP,
) -> Optional[float]:
    """Exact maximum-weight matching weight, or ``None`` above the caps."""
    if graph.num_vertices > vertex_cap or graph.num_edges > edge_cap:
        return None
    _, weight = brute_force_maximum_weight_matching(graph)
    return weight
