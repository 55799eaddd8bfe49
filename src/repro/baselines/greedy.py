"""Sequential greedy baselines for MIS and maximal matching."""

from __future__ import annotations

from typing import Optional, Sequence, Set, Union

import numpy as np

from repro.graph.csr import CSRGraph, as_csr
from repro.graph.graph import Edge, Graph, canonical_edge
from repro.utils.rng import SeedLike, make_rng


def greedy_mis_sequential(
    graph: Union[Graph, CSRGraph], seed: SeedLike = None
) -> Set[int]:
    """Greedy MIS over a random vertex order (one-liner reference).

    Walks the CSR rows, so CSR and memory-mapped inputs are never
    converted to a set graph.
    """
    rng = make_rng(seed)
    csr = as_csr(graph)
    order = list(range(csr.num_vertices))
    rng.shuffle(order)
    indptr = csr.indptr.tolist()
    indices = csr.indices
    blocked = np.zeros(csr.num_vertices, dtype=bool)
    mis: Set[int] = set()
    for v in order:
        if blocked[v]:
            continue
        mis.add(v)
        blocked[indices[indptr[v] : indptr[v + 1]]] = True
    return mis


def greedy_maximal_matching(
    graph: Graph, order: Optional[Sequence[Edge]] = None, seed: SeedLike = None
) -> Set[Edge]:
    """Greedy maximal matching over an edge order (random by default).

    A maximal matching is a 2-approximate maximum matching and its endpoint
    set is a 2-approximate vertex cover — the folklore bounds every
    baseline comparison in the paper starts from.
    """
    if order is None:
        edges = graph.edge_list()
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
