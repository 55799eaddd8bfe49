"""MIS in the CONGESTED-CLIQUE model — the second half of Theorem 1.1.

Follows Section 3.2's CONGESTED-CLIQUE simulation verbatim:

1. The minimum-id player samples the permutation locally and informs every
   player of its rank (one round); players then broadcast their ranks so
   everyone knows the full order (one round).
2. Per prefix phase, players whose rank falls in the current range send
   their incident residual edges to the leader via Lenzen's routing scheme
   (volume ``O(n)`` w.h.p. by Lemma 3.1 — validated, not assumed); the
   leader runs greedy over the prefix and answers each player in-or-out
   (one round); one more round lets MIS members inform their neighbors.
3. The sparsified finish runs the compressed Luby process with the same
   exponentiation schedule as the MPC version (ball-doubling works
   identically in CONGESTED-CLIQUE).

Hot-path layout: the input is converted once to a
:class:`~repro.graph.csr.CSRGraph` and never copied or mutated.  The
residual is an ``alive`` boolean mask (valid because greedy deletion only
ever isolates vertices), routed edge messages are flat NumPy endpoint
arrays validated by ``bincount`` (:func:`lenzen_route_arrays`), the
leader's greedy runs on the CSR (:func:`greedy_mis_on_prefix_csr`), and
the sparsified finish receives the residual as a mask-filtered CSR.  The
permutation and the finish share their counter-keyed draws with the MPC
algorithm (:func:`repro.core.mis_mpc.draw_ranks`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.congested_clique.model import CongestedClique
from repro.congested_clique.routing import lenzen_route_arrays
from repro.core.config import MISConfig
from repro.core.greedy_mis import greedy_mis_on_prefix_csr
from repro.core.sparsified_mis import sparsified_mis
from repro.graph.csr import CSRGraph, as_csr
from repro.graph.graph import Graph
from repro.utils.rng import SeedLike, make_rng


@dataclass
class CCMISResult:
    """Outcome of the CONGESTED-CLIQUE MIS algorithm; ``mis`` is an
    ascending ``int64`` array."""

    mis: np.ndarray
    rounds: int
    prefix_phases: int
    max_routed_messages: int
    routed_per_phase: List[int] = field(default_factory=list)


def congested_clique_mis(
    graph: Union[Graph, CSRGraph],
    seed: SeedLike = None,
    config: Optional[MISConfig] = None,
) -> CCMISResult:
    """Compute an MIS of ``graph`` on a simulated CONGESTED-CLIQUE network."""
    from repro.core.mis_mpc import draw_ranks, rank_schedule  # avoids a cycle

    config = config or MISConfig()
    rng = make_rng(seed)
    n = graph.num_vertices
    if n == 0:
        return CCMISResult(
            mis=np.empty(0, dtype=np.int64),
            rounds=0,
            prefix_phases=0,
            max_routed_messages=0,
        )

    clique = CongestedClique(n)
    csr = as_csr(graph)
    cutoffs = rank_schedule(n, csr.max_degree(), config)

    # Leader samples the permutation and distributes ranks; players then
    # broadcast their own position so the full order is common knowledge.
    # The pure-sparse regime never reads a rank, so it draws none.
    ranks = draw_ranks(rng, n) if cutoffs else None
    clique.round_of_messages_array(
        np.zeros(n, dtype=np.int64),
        np.arange(n, dtype=np.int64),
        context="mis: leader assigns ranks",
    )
    clique.broadcast_round(context="mis: players broadcast ranks")

    # ``alive`` tracks the residual graph (False = isolated by a removed
    # closed neighborhood); ``decided`` additionally covers dominated
    # prefix vertices whose edges survive.
    alive = np.ones(n, dtype=bool)
    decided = np.zeros(n, dtype=bool)
    in_mis = np.zeros(n, dtype=bool)
    routed_sizes: List[int] = []
    previous_cutoff = 0

    for phase_index, cutoff in enumerate(cutoffs):
        window = (ranks >= previous_cutoff) & (ranks < cutoff) & ~decided
        prefix = np.flatnonzero(window)
        # Each prefix player routes its prefix-internal residual edges to
        # the leader, from the lower endpoint.  Prefix vertices are
        # undecided, hence never isolated, so those residual edges
        # coincide with original-graph edges.
        senders = csr.induced_edges(window)[:, 0]
        # The leader receives the whole prefix subgraph — O(n) messages
        # w.h.p. (Lemma 3.1), i.e. a constant number of Lenzen invocations,
        # each of which is volume-validated by the routing scheme.
        for start in range(0, max(1, len(senders)), n):
            chunk = senders[start : start + n]
            lenzen_route_arrays(
                clique,
                chunk,
                np.zeros(len(chunk), dtype=np.int64),
                context=f"mis: phase {phase_index} edges to leader",
            )
        routed_sizes.append(len(senders))

        # Leader's greedy over the prefix (its outcome depends only on the
        # prefix-internal adjacency the leader received).
        new_mis = greedy_mis_on_prefix_csr(csr, ranks, prefix)
        clique.round_of_messages_array(
            np.zeros(len(prefix), dtype=np.int64),
            prefix,
            context=f"mis: phase {phase_index} leader replies",
        )
        clique.broadcast_round(context=f"mis: phase {phase_index} removal notices")

        # The chosen vertices are independent, so their closed
        # neighborhoods can be removed (and marked decided) in one batch.
        in_mis[new_mis] = True
        chosen_neighbors = csr.neighbors_bulk(new_mis)
        alive[new_mis] = False
        alive[chosen_neighbors] = False
        decided[new_mis] = True
        decided[chosen_neighbors] = True
        decided |= window
        previous_cutoff = cutoff

    finish = sparsified_mis(
        csr.filter_edges(alive) if cutoffs else csr,
        active=~decided,
        seed=rng.getrandbits(64),
        rounds_factor=config.luby_rounds_factor,
        strategy=config.sparse_strategy,
    )
    # Charge the finish's compressed schedule to the clique: ball doubling,
    # leftover gathering (Lenzen), and the final result broadcast.
    clique.charge_rounds(
        finish.rounds_charged + 3, "mis: sparsified finish (compressed Luby)"
    )
    in_mis[finish.mis] = True

    return CCMISResult(
        mis=np.flatnonzero(in_mis),
        rounds=clique.rounds,
        prefix_phases=len(cutoffs),
        max_routed_messages=max(routed_sizes, default=0),
        routed_per_phase=routed_sizes,
    )
