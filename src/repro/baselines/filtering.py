"""LMSV11 filtering maximal matching — the Θ(n)-memory MPC baseline.

Lattanzi, Moseley, Suri, and Vassilvitskii's algorithm (cited throughout
the paper and used directly in its Section 4.4.5): while the residual edge
set exceeds one machine's memory, sample a uniform edge subset that fits,
compute a maximal matching of the sample on one machine, and delete all
matched vertices; the residual edge count halves (w.h.p.) per round.  Once
the residual fits, finish exactly.  The output is a *maximal* matching of
the input graph.

The residual is a ``matched`` vertex mask over the input's canonical CSR
edge rows: an edge stays live while both endpoints are unmatched, so no
graph is copied or rebuilt.  Each round samples positions in the sorted
live edge list and greedily matches a seeded shuffle of the sorted sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Union

import numpy as np

from repro.graph.csr import CSRGraph, as_csr
from repro.graph.graph import Edge, Graph
from repro.mpc.words import WORDS_PER_EDGE
from repro.utils.rng import SeedLike, make_rng


@dataclass
class FilteringResult:
    """Outcome of the filtering algorithm."""

    matching: Set[Edge]
    rounds: int
    residual_edges_per_round: List[int] = field(default_factory=list)


def filtering_maximal_matching(
    graph: Union[Graph, CSRGraph],
    words_per_machine: int,
    seed: SeedLike = None,
    max_rounds: int = 10_000,
) -> FilteringResult:
    """Compute a maximal matching with memory-bounded filtering rounds."""
    words_per_machine = int(words_per_machine)
    if words_per_machine < 4 * WORDS_PER_EDGE:
        raise ValueError(
            f"words_per_machine too small to hold any sample: {words_per_machine}"
        )
    rng = make_rng(seed)
    csr = as_csr(graph)
    edges = csr.edge_array()
    eu, ev = edges[:, 0], edges[:, 1]
    matched = np.zeros(csr.num_vertices, dtype=bool)
    live = np.ones(len(edges), dtype=bool)
    live_count = len(edges)
    matching: Set[Edge] = set()
    rounds = 0
    capacity_edges = max(2, words_per_machine // WORDS_PER_EDGE)
    residual_trajectory: List[int] = []

    while live_count > capacity_edges:
        if rounds >= max_rounds:
            raise RuntimeError("filtering exceeded its round cap")
        rounds += 1
        # ``random.sample`` draws depend only on the population's length,
        # so sampling positions among the live rows picks the edges that
        # sampling the sorted live edge list would; sorted rows give the
        # sorted sample.
        rows = np.flatnonzero(live)
        picked = np.sort(
            rows[rng.sample(range(live_count), min(live_count, capacity_edges))]
        )
        sample = list(zip(eu[picked].tolist(), ev[picked].tolist()))
        _match_greedily(sample, rng.getrandbits(64), matched, matching)
        live &= ~(matched[eu] | matched[ev])
        live_count = int(np.count_nonzero(live))
        residual_trajectory.append(live_count)

    # Final round: the residual fits on one machine; finish exactly.
    if live_count > 0:
        rounds += 1
        residual = list(zip(eu[live].tolist(), ev[live].tolist()))
        _match_greedily(residual, rng.getrandbits(64), matched, matching)
        residual_trajectory.append(0)
    return FilteringResult(
        matching=matching,
        rounds=rounds,
        residual_edges_per_round=residual_trajectory,
    )


def _match_greedily(
    edges: List[Edge], seed: int, matched: np.ndarray, matching: Set[Edge]
) -> None:
    """One machine's greedy maximal matching of live ``edges``, in place.

    Shuffles the sorted ``edges`` with ``seed``, then adds each edge whose
    endpoints are both still unmatched to ``matching`` and marks them in
    ``matched``.
    """
    make_rng(seed).shuffle(edges)
    for u, v in edges:
        if matched[u] or matched[v]:
            continue
        matching.add((u, v))
        matched[u] = True
        matched[v] = True
