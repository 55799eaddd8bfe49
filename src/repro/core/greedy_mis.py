"""Sequential randomized greedy MIS — the reference process of Section 3.1.

The MPC algorithm of Theorem 1.1 *simulates* this process exactly: permute
the vertices uniformly at random, then walk the permutation adding each
vertex whose earlier-ranked neighbors were all skipped.  The MPC and
CONGESTED-CLIQUE implementations batch ranks into prefixes, but their
output is identical to this sequential run under the same permutation —
a property the test suite asserts verbatim.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph, as_csr
from repro.graph.graph import Graph
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import require


def greedy_mis(graph: Union[Graph, CSRGraph], order: Sequence[int]) -> np.ndarray:
    """Greedy MIS processing vertices in ``order``, as ascending int64 ids.

    ``order`` must enumerate every vertex exactly once.  Runs in
    ``O(n + m)`` time over the CSR rows, so CSR and memory-mapped inputs
    are never converted to a set graph.
    """
    require(
        sorted(order) == list(range(graph.num_vertices)),
        "order must be a permutation of the vertex set",
    )
    return _greedy_walk(as_csr(graph), order)


def randomized_greedy_mis(
    graph: Union[Graph, CSRGraph], seed: SeedLike = None
) -> np.ndarray:
    """Greedy MIS over a uniformly random permutation (the paper's
    process), as ascending int64 ids."""
    csr = as_csr(graph)
    order = list(range(csr.num_vertices))
    make_rng(seed).shuffle(order)
    return _greedy_walk(csr, order)


def _greedy_walk(csr: CSRGraph, order: Sequence[int]) -> np.ndarray:
    """Greedy MIS over the permutation ``order``: each pick blocks its row."""
    indptr = csr.indptr.tolist()
    indices = csr.indices
    blocked = np.zeros(csr.num_vertices, dtype=bool)
    in_mis = np.zeros(csr.num_vertices, dtype=bool)
    for v in order:
        if blocked[v]:
            continue
        in_mis[v] = True
        blocked[indices[indptr[v] : indptr[v + 1]]] = True
    return np.flatnonzero(in_mis)


def greedy_mis_on_prefix_csr(
    csr: CSRGraph,
    ranks: np.ndarray,
    prefix: np.ndarray,
) -> np.ndarray:
    """Greedy MIS restricted to the ``prefix`` vertices; returns the chosen.

    Processes the prefix in increasing rank order against the *induced*
    subgraph on it — exactly the computation one MPC machine performs on
    the shipped prefix (Section 3.2).  Correctness rests on the prefix
    property: a vertex's greedy outcome depends only on earlier-ranked
    vertices, all of which are inside the prefix.

    ``csr`` is the *original* graph: residual edges among prefix vertices
    coincide with original edges (prefix vertices are undecided, hence
    never isolated), so no residual structure is needed.  The greedy walk
    itself is inherently sequential, but each step is one vectorized
    neighbor-slice membership test.
    """
    order = prefix[np.argsort(ranks[prefix], kind="stable")]
    chosen = np.zeros(csr.num_vertices, dtype=bool)
    indptr = csr.indptr
    indices = csr.indices
    for v in order.tolist():
        # ``chosen`` is only ever set on prefix vertices, so the slice test
        # is automatically restricted to the induced prefix subgraph.
        if not chosen[indices[indptr[v] : indptr[v + 1]]].any():
            chosen[v] = True
    return np.flatnonzero(chosen)


def residual_after_prefix(
    graph: Union[Graph, CSRGraph], ranks: Sequence[int], up_to_rank: int
) -> Tuple[CSRGraph, np.ndarray]:
    """The residual graph after greedily processing ranks ``< up_to_rank``.

    Utility for Lemma 3.1-style experiments: returns ``(residual, mis)``
    where ``residual`` is the CSR with every decided vertex (a pick or a
    pick's neighbour) isolated.  One CSR walk over the prefix, then one
    alive-mask filter of the edge rows.
    """
    csr = as_csr(graph)
    ranks = np.asarray(ranks, dtype=np.int64)
    order = np.argsort(ranks, kind="stable")
    prefix = order[: np.count_nonzero(ranks < up_to_rank)]
    mis = _greedy_walk(csr, prefix.tolist())
    alive = csr.remove_closed_neighborhoods(mis)
    return csr.filter_edges(alive), mis
