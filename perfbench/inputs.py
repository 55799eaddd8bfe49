"""Seeded workload inputs, generated here and handed to the program as data.

The generators are the benchmark's own, so a change to the program's
graph generators cannot change what the benchmark measures.  Edges are
canonical ``(u, v)`` pairs with ``u < v``; the same seed gives the same
edges, batches and order.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

import numpy as np

Edge = Tuple[int, int]


def erdos_renyi_edges(n: int, average_degree: float, seed: int) -> List[Edge]:
    """G(n, m) with ``m = n * average_degree / 2`` distinct uniform edges."""
    target = int(round(n * average_degree / 2))
    rng = np.random.default_rng([seed, 1])
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < target:
        u = rng.integers(0, n, size=target)
        v = rng.integers(0, n, size=target)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        fresh = (lo * n + hi)[lo != hi]
        # Keep first occurrences in draw order so the prefix is seed-stable.
        keys = np.concatenate([keys, fresh])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = np.sort(keys[:target])
    return [(int(k // n), int(k % n)) for k in keys]


def barabasi_albert_edges(n: int, attachment: int, seed: int) -> List[Edge]:
    """Preferential attachment: each new vertex links to ``attachment`` others.

    Average degree is about ``2 * attachment`` with a power-law tail, the
    degree skew the Erdős–Rényi input lacks.
    """
    rng = random.Random(seed * 2 + 1)
    edges: List[Edge] = []
    # Each vertex appears once per incident edge, plus once for the seeds.
    endpoints: List[int] = list(range(attachment))
    for v in range(attachment, n):
        targets = set()
        while len(targets) < attachment:
            targets.add(endpoints[rng.randrange(len(endpoints))])
        for u in sorted(targets):
            edges.append((u, v))
            endpoints.extend((u, v))
    edges.sort()
    return edges


def churn_stream(
    n: int, edges: List[Edge], fraction: float, seed: int
) -> Iterator[Tuple[List[Edge], List[Edge]]]:
    """Endless ``(insertions, deletions)`` epochs at a fixed edge count.

    Each epoch retires ``fraction`` of the live edges uniformly and adds
    as many fresh uniform non-edges, so ``n`` and ``m`` stay constant.
    """
    rng = random.Random(seed * 2 + 2)
    pool = list(edges)
    live = set(pool)
    count = max(1, int(round(fraction * len(pool))))
    while True:
        positions = sorted(rng.sample(range(len(pool)), count), reverse=True)
        deletions = []
        for position in positions:
            edge = pool[position]
            deletions.append(edge)
            live.discard(edge)
            pool[position] = pool[-1]
            pool.pop()
        insertions: List[Edge] = []
        while len(insertions) < count:
            u, v = rng.randrange(n), rng.randrange(n)
            edge = (min(u, v), max(u, v))
            if u != v and edge not in live:
                live.add(edge)
                pool.append(edge)
                insertions.append(edge)
        yield insertions, deletions
