"""Israeli–Itai randomized maximal matching [II86] — O(log n) rounds.

Classic two-step round: every unmatched vertex proposes along a random
incident live edge; mutual/colliding proposals are resolved by random edge
priorities, the locally-minimal proposed edges join the matching, and
matched vertices leave.  Terminates when no live edge remains.

Hot-path layout: the residual lives as a ``live`` vertex mask over one
CSR.  Per round, the live adjacency is compacted in one vectorized pass
(rows stay ascending, matching the historical ``sorted(neighbors)``), the
per-vertex proposal draws walk that compact structure in the same vertex
order and through the same ``rng.choice`` consumption as before, and the
winner resolution — previously a scan of every edge adjacent to every
proposal — is one per-endpoint ``minimum.at`` pass.  Seeded outputs are
bit-for-bit identical to the historical set-based implementation (the
proposal set and its iteration order, which feeds the priority draws, are
reproduced exactly; pinned in ``tests/test_backend_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Union

import numpy as np

from repro.graph.csr import CSRGraph, as_csr
from repro.graph.graph import Edge, Graph, canonical_edge
from repro.utils.rng import SeedLike, make_rng


@dataclass
class IsraeliItaiResult:
    """Outcome of the Israeli–Itai algorithm."""

    matching: Set[Edge]
    rounds: int


def israeli_itai_matching(
    graph: Union[Graph, CSRGraph],
    seed: SeedLike = None,
    max_rounds: Optional[int] = None,
) -> IsraeliItaiResult:
    """Run the Israeli–Itai process to a maximal matching."""
    rng = make_rng(seed)
    n = graph.num_vertices
    csr = as_csr(graph)
    src = csr.src
    dst = csr.indices
    live = np.ones(n, dtype=bool)
    live_slots = np.ones(len(dst), dtype=bool)
    matching: Set[Edge] = set()
    rounds = 0
    cap = max_rounds if max_rounds is not None else 64 * (n + 2)

    while live_slots.any():
        if rounds >= cap:
            raise RuntimeError("Israeli-Itai exceeded its round cap")
        rounds += 1
        # Compact live adjacency: rows keep their ascending order, so the
        # historical ``sorted(neighbors)`` is exactly each compacted row.
        flat = dst[live_slots]
        counts = np.bincount(src[live_slots], minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # Step 1: every vertex with live edges proposes along a random one.
        # Vertex order and rng consumption match the set-based loop.
        proposals: Set[Edge] = set()
        for v in np.flatnonzero(counts).tolist():
            u = int(rng.choice(flat[offsets[v] : offsets[v + 1]]))
            proposals.add(canonical_edge(v, u))
        # Step 2: proposed edges draw random priorities (in proposal-set
        # iteration order, which the priority stream depends on); an edge
        # wins when it beats every adjacent proposed edge.
        ordered = list(proposals)
        priority = np.fromiter(
            (rng.random() for _ in ordered), dtype=np.float64, count=len(ordered)
        )
        pu = np.fromiter((e[0] for e in ordered), dtype=np.int64, count=len(ordered))
        pv = np.fromiter((e[1] for e in ordered), dtype=np.int64, count=len(ordered))
        best_at = np.full(n, np.inf)
        np.minimum.at(best_at, pu, priority)
        np.minimum.at(best_at, pv, priority)
        beaten = (best_at[pu] < priority) | (best_at[pv] < priority)
        winner_u = pu[~beaten]
        winner_v = pv[~beaten]
        # Winners are pairwise non-adjacent (each is a strict local
        # priority minimum), so the historical re-check guards never fire —
        # except on an exact priority collision between adjacent proposals,
        # where the set-based code kept whichever it applied first.
        endpoints = np.concatenate((winner_u, winner_v))
        if len(np.unique(endpoints)) != len(endpoints):
            winners = list(zip(winner_u.tolist(), winner_v.tolist()))
            for u, v in winners:
                if live[u] and live[v]:
                    matching.add((u, v))
                    live[u] = False
                    live[v] = False
        else:
            matching.update(zip(winner_u.tolist(), winner_v.tolist()))
            live[winner_u] = False
            live[winner_v] = False
        live_slots &= live[src] & live[dst]
    return IsraeliItaiResult(matching=matching, rounds=rounds)
