"""Maximal matching via MIS on the line graph.

The paper's introduction recalls the classic reduction (Luby [Lub86]): an
MIS of the line graph ``L(G)`` is exactly a maximal matching of ``G``, and
its endpoints form a 2-approximate vertex cover.  This module implements
the reduction on top of any of the library's MIS algorithms — it serves as
an independent cross-check of both the MIS implementations and the
matching validators (tests run it against the direct matching algorithms),
and as the historical baseline the paper's Theorem 1.2 improves upon.

Caveat the paper also notes: ``L(G)`` has ``Θ(Σ deg²)`` edges, so the
reduction blows up memory on high-degree graphs — precisely why the paper
develops the direct algorithm.  The ``max_line_graph_edges`` guard makes
that failure mode explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.mis_mpc import mis_mpc
from repro.graph.graph import Edge, Graph, canonical_edge
from repro.utils.rng import SeedLike

DEFAULT_LINE_GRAPH_EDGE_CAP = 2_000_000


def line_graph(graph: Graph) -> Tuple[Graph, List[Edge]]:
    """The line graph ``L(G)`` and the edge ordering defining its vertices.

    Vertex ``i`` of ``L(G)`` is ``edge_order[i]``; two line-graph
    vertices are adjacent iff the underlying edges share an endpoint.
    """
    edge_order = graph.edge_list()
    index: Dict[Edge, int] = {e: i for i, e in enumerate(edge_order)}
    lg = Graph(len(edge_order))
    for v in graph.vertices():
        incident = sorted(graph.neighbors_view(v))
        for a_idx in range(len(incident)):
            for b_idx in range(a_idx + 1, len(incident)):
                e1 = canonical_edge(v, incident[a_idx])
                e2 = canonical_edge(v, incident[b_idx])
                lg.add_edge(index[e1], index[e2])
    return lg, edge_order


@dataclass
class LineGraphMatchingResult:
    """Maximal matching obtained through the line-graph reduction."""

    matching: Set[Edge]
    rounds: int
    line_graph_vertices: int
    line_graph_edges: int


def maximal_matching_via_line_graph(
    graph: Graph,
    seed: SeedLike = None,
    max_line_graph_edges: int = DEFAULT_LINE_GRAPH_EDGE_CAP,
) -> LineGraphMatchingResult:
    """Compute a maximal matching of ``graph`` as an MIS of ``L(G)``.

    Raises ``ValueError`` when the line graph would exceed
    ``max_line_graph_edges`` — the memory blow-up that motivates the
    paper's direct matching algorithm.
    """
    degree_square_sum = sum(d * (d - 1) // 2 for d in graph.degrees())
    if degree_square_sum > max_line_graph_edges:
        raise ValueError(
            f"line graph would have ~{degree_square_sum} edges "
            f"(cap {max_line_graph_edges}); use the direct matching algorithm"
        )
    lg, edge_order = line_graph(graph)
    mis_result = mis_mpc(lg, seed=seed)
    matching = {edge_order[index] for index in mis_result.mis}
    return LineGraphMatchingResult(
        matching=matching,
        rounds=mis_result.rounds,
        line_graph_vertices=lg.num_vertices,
        line_graph_edges=lg.num_edges,
    )
