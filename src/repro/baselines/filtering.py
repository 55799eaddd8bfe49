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
from typing import List, Union

import numpy as np

from repro.baselines.greedy import match_shuffled
from repro.graph.csr import CSRGraph, as_csr
from repro.graph.graph import Graph
from repro.mpc.words import WORDS_PER_EDGE
from repro.utils.rng import SeedLike, make_rng


@dataclass
class FilteringResult:
    """Outcome of the filtering algorithm; ``matching`` is the matched rows."""

    matching: np.ndarray
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
    matched_rows: List[np.ndarray] = []
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
        matched_rows.append(match_shuffled(edges[picked], rng.getrandbits(64), matched))
        live &= ~(matched[eu] | matched[ev])
        live_count = int(np.count_nonzero(live))
        residual_trajectory.append(live_count)

    # Final round: the residual fits on one machine; finish exactly.
    if live_count > 0:
        rounds += 1
        matched_rows.append(match_shuffled(edges[live], rng.getrandbits(64), matched))
        residual_trajectory.append(0)
    return FilteringResult(
        matching=np.concatenate(matched_rows or [edges[:0]]),
        rounds=rounds,
        residual_edges_per_round=residual_trajectory,
    )
