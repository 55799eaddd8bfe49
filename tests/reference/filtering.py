"""LMSV11 filtering maximal matching on a mutable set graph.

The set-based loop the library's array version (:mod:`repro.baselines.
filtering`) must reproduce draw for draw: copy the input, sample the
sorted residual edge list, greedily match a seeded shuffle of the sorted
sample, and ``isolate`` every matched vertex.  Its greedy step is the
set-graph greedy maximal matching, kept here so the reference does not
run the library code it checks.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.graph.graph import Edge, Graph
from repro.mpc.words import WORDS_PER_EDGE
from repro.utils.rng import SeedLike, make_rng


def greedy_maximal_matching(graph: Graph, seed: SeedLike = None) -> Set[Edge]:
    """Greedy maximal matching over a seeded shuffle of the sorted edges."""
    edges = graph.edge_list()
    make_rng(seed).shuffle(edges)
    matched: Set[int] = set()
    matching: Set[Edge] = set()
    for u, v in edges:
        if u in matched or v in matched:
            continue
        matching.add((u, v))
        matched.add(u)
        matched.add(v)
    return matching


def filtering_maximal_matching(
    graph: Graph,
    words_per_machine: int,
    seed: SeedLike = None,
    max_rounds: int = 10_000,
) -> Tuple[Set[Edge], int, List[int]]:
    """``(matching, rounds, residual_edges_per_round)`` of the filtering."""
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

    if residual.num_edges > 0:
        rounds += 1
        final = greedy_maximal_matching(residual, seed=rng.getrandbits(64))
        for u, v in final:
            matching.add((u, v))
            residual.isolate(u)
            residual.isolate(v)
        residual_trajectory.append(0)
    return matching, rounds, residual_trajectory
