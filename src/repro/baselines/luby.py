"""Luby's MIS algorithm [Lub86] — the O(log n)-round baseline.

One round per step (no round compression): every active vertex draws a
random value and joins when it beats all active neighbors; winners' closed
neighborhoods are removed.  The E1/E10 experiments contrast its measured
round count against the paper's O(log log Δ) algorithm.

Hot-path layout: the graph is converted once to CSR; the residual is an
``active`` mask, winner determination is one vectorized comparison over
the live slots, and closed neighborhoods are removed in one batch (the
winners form an independent set).  Per-vertex draws are still consumed in
set-iteration order — that order is load-bearing for reproducibility — so
seeded runs match the historical set-based implementation bit-for-bit
(pinned in ``tests/test_backend_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Union

import numpy as np

from repro.graph.csr import CSRGraph, as_csr
from repro.graph.graph import Graph
from repro.utils.rng import SeedLike, make_rng


@dataclass
class LubyResult:
    """Outcome of Luby's algorithm."""

    mis: Set[int]
    rounds: int


def luby_mis(
    graph: Union[Graph, CSRGraph],
    seed: SeedLike = None,
    max_rounds: Optional[int] = None,
) -> LubyResult:
    """Run Luby's algorithm to completion, one round per step."""
    rng = make_rng(seed)
    n = graph.num_vertices
    csr = as_csr(graph)
    src = csr.src
    dst = csr.indices
    active: Set[int] = set(graph.vertices())
    active_mask = np.ones(n, dtype=bool)
    draw = np.empty(n, dtype=np.float64)
    mis: Set[int] = set()
    rounds = 0
    cap = max_rounds if max_rounds is not None else 64 * (n + 2)

    while active:
        if rounds >= cap:
            raise RuntimeError("Luby's algorithm exceeded its round cap")
        # Draws in set-iteration order — exactly the order the historical
        # set-based round consumed them, so seeded runs reproduce
        # bit-for-bit.
        for v in active:
            draw[v] = rng.random()
        both = active_mask[src] & active_mask[dst]
        s = src[both]
        t = dst[both]
        # (draw, id) lexicographic comparison, as the set-based round used.
        beats = (draw[t] < draw[s]) | ((draw[t] == draw[s]) & (t < s))
        beaten = np.zeros(n, dtype=bool)
        beaten[s[beats]] = True
        winners_mask = active_mask & ~beaten
        winners = np.flatnonzero(winners_mask)
        rounds += 1
        mis.update(winners.tolist())
        # Winners form an independent set: remove their closed
        # neighborhoods in one batch.
        removed_mask = winners_mask.copy()
        removed_mask[csr.neighbors_bulk(winners)] = True
        removed_mask &= active_mask
        active.difference_update(np.flatnonzero(removed_mask).tolist())
        active_mask &= ~removed_mask
    return LubyResult(mis=mis, rounds=rounds)
