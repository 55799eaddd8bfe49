"""Sequential greedy maximal matching baseline."""

from __future__ import annotations

from typing import Optional, Sequence, Set, Union

from repro.graph.csr import CSRGraph, as_csr
from repro.graph.graph import Edge, Graph, canonical_edge
from repro.utils.rng import SeedLike, make_rng


def greedy_maximal_matching(
    graph: Union[Graph, CSRGraph],
    order: Optional[Sequence[Edge]] = None,
    seed: SeedLike = None,
) -> Set[Edge]:
    """Greedy maximal matching over an edge order (random by default).

    A maximal matching is a 2-approximate maximum matching and its endpoint
    set is a 2-approximate vertex cover — the folklore bounds every
    baseline comparison in the paper starts from.  The default order is a
    shuffle of the sorted CSR edge list.
    """
    if order is None:
        edges = as_csr(graph).edge_list()
        make_rng(seed).shuffle(edges)
    else:
        edges = [canonical_edge(u, v) for u, v in order]
    matched: Set[int] = set()
    matching: Set[Edge] = set()
    for u, v in edges:
        if u in matched or v in matched:
            continue
        matching.add((u, v))
        matched.add(u)
        matched.add(v)
    return matching
