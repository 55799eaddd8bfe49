"""Sequential greedy maximal matching baseline."""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.graph.csr import CSRGraph, as_csr, edge_rows
from repro.graph.graph import Edge, Graph
from repro.utils.rng import SeedLike, make_rng


def greedy_maximal_matching(
    graph: Union[Graph, CSRGraph],
    order: Optional[Sequence[Edge]] = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """Greedy maximal matching over an edge order (random by default).

    A maximal matching is a 2-approximate maximum matching and its endpoint
    set is a 2-approximate vertex cover — the folklore bounds every
    baseline comparison in the paper starts from.  The default order is a
    shuffle of the sorted CSR edge rows.  Returns the matched rows in walk
    order.
    """
    matched = np.zeros(graph.num_vertices, dtype=bool)
    if order is None:
        return match_shuffled(as_csr(graph).edge_array(), seed, matched)
    return match_in_order(np.sort(edge_rows(order), axis=1), matched)


def match_shuffled(
    rows: np.ndarray, seed: SeedLike, matched: np.ndarray
) -> np.ndarray:
    """:func:`match_in_order` over a ``seed`` shuffle of ``rows`` (its draws
    depend only on ``len(rows)``, so shuffling positions is shuffling rows)."""
    order = list(range(len(rows)))
    make_rng(seed).shuffle(order)
    return match_in_order(rows[order], matched)


def match_in_order(rows: np.ndarray, matched: np.ndarray) -> np.ndarray:
    """The ``rows`` whose endpoints are both unmatched when reached, in
    order; marks their endpoints in ``matched``."""
    is_matched = matched.tolist()
    kept = []
    for position, (u, v) in enumerate(zip(rows[:, 0].tolist(), rows[:, 1].tolist())):
        if is_matched[u] or is_matched[v]:
            continue
        kept.append(position)
        is_matched[u] = is_matched[v] = True
    matched[rows[kept].ravel()] = True
    return rows[kept]
