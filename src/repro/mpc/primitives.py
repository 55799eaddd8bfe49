"""Shared MPC communication patterns.

These are the "standard techniques" the paper invokes (random vertex
partitioning from [CŁM+18], gather-to-leader), packaged so every
algorithm charges them identically.  Result broadcasts go through
:func:`repro.govern.governed_broadcast`.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.graph.graph import Edge, Graph
from repro.mpc.cluster import Message, MPCCluster
from repro.mpc.words import edge_words
from repro.utils.rng import SeedLike, make_rng


def partition_vertices(
    vertices: Iterable[int], num_parts: int, seed: SeedLike = None
) -> List[List[int]]:
    """Random vertex partitioning: each vertex i.i.d. uniform over parts.

    This is the vertex-based sampling of [CŁM+18] used at Line (d) of
    MPC-Simulation and in the matching phases; i.i.d. assignment (rather
    than balanced chunking) is what the Chernoff-based size bounds
    (Lemma 4.7) are proved for.
    """
    if num_parts <= 0:
        raise ValueError(f"num_parts must be positive, got {num_parts}")
    rng = make_rng(seed)
    parts: List[List[int]] = [[] for _ in range(num_parts)]
    for v in vertices:
        parts[rng.randrange(num_parts)].append(v)
    return parts


def assignment_map(parts: Sequence[Sequence[int]]) -> Dict[int, int]:
    """Invert a partition into a vertex → part-index map."""
    owner: Dict[int, int] = {}
    for index, part in enumerate(parts):
        for v in part:
            owner[v] = index
    return owner


def scatter_induced_subgraphs(
    cluster: MPCCluster,
    graph: Graph,
    parts: Sequence[Sequence[int]],
    context: str = "scatter-induced",
) -> List[List[Edge]]:
    """Deliver ``G[V_i]`` to machine ``i`` for every part, in one exchange.

    Each edge of an induced subgraph is sent by the machine currently
    holding it; the substrate validates that every machine's share fits.
    Returns the per-machine edge lists (original labels).
    """
    outboxes: Dict[int, List[Message]] = {}
    induced: List[List[Edge]] = []
    for index, part in enumerate(parts):
        edges = graph.induced_edges(part)
        induced.append(edges)
        outboxes.setdefault(index % cluster.num_machines, []).append(
            Message(destination=index, words=edge_words(len(edges)), payload=edges)
        )
    cluster.exchange(outboxes, context=context)
    for index, edges in enumerate(induced):
        cluster.machine(index).store(
            "induced_edges", edges, edge_words(len(edges)), context=context
        )
    return induced


def gather_edges_to_leader(
    cluster: MPCCluster,
    edges: List[Edge],
    leader: int = 0,
    context: str = "gather-to-leader",
) -> None:
    """Ship an edge set to the leader machine (one round, size-validated)."""
    cluster.ship_to_machine(
        leader, "gathered_edges", edges, edge_words(len(edges)), context=context
    )

