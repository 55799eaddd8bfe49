"""LMSV11 filtering maximal matching — the Θ(n)-memory MPC baseline.

Lattanzi, Moseley, Suri, and Vassilvitskii's algorithm (cited throughout
the paper and used directly in its Section 4.4.5): while the residual edge
set exceeds one machine's memory, sample a uniform edge subset that fits,
compute a maximal matching of the sample on one machine, and delete all
matched vertices; the residual edge count halves (w.h.p.) per round.  Once
the residual fits, finish exactly.  The output is a *maximal* matching of
the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro.baselines.greedy import greedy_maximal_matching
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
    graph: Graph,
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
    residual = graph.copy()
    matching: Set[Edge] = set()
    rounds = 0
    capacity_edges = max(2, words_per_machine // WORDS_PER_EDGE)
    residual_trajectory: List[int] = []

    while residual.num_edges > capacity_edges:
        if rounds >= max_rounds:
            raise RuntimeError("filtering exceeded its round cap")
        rounds += 1
        edges = residual.edge_list()
        sample_size = min(len(edges), capacity_edges)
        sample = rng.sample(edges, sample_size)
        sample_matching = greedy_maximal_matching(
            Graph(graph.num_vertices, sample), seed=rng.getrandbits(64)
        )
        for u, v in sample_matching:
            matching.add((u, v))
            residual.isolate(u)
            residual.isolate(v)
        residual_trajectory.append(residual.num_edges)

    # Final round: the residual fits on one machine; finish exactly.
    if residual.num_edges > 0:
        rounds += 1
        final = greedy_maximal_matching(residual, seed=rng.getrandbits(64))
        for u, v in final:
            matching.add((u, v))
            residual.isolate(u)
            residual.isolate(v)
        residual_trajectory.append(0)
    return FilteringResult(
        matching=matching,
        rounds=rounds,
        residual_edges_per_round=residual_trajectory,
    )
