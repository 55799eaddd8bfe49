"""MIS in ``O(log log Δ)`` MPC rounds — Theorem 1.1.

Simulates the randomized greedy MIS process (Section 3.1) by rank-prefix
batching (Section 3.2):

1. Pick a uniform random permutation ``π`` of the vertices
   (:func:`draw_ranks`, one counter-keyed draw).
2. Iteration ``i`` ships the residual subgraph induced by ranks up to
   ``r_i = n / Δ^(α^i)`` (``α = 3/4``) to a single machine, which walks the
   ranks greedily; the decisions are broadcast and every machine removes
   decided vertices.  Lemma 3.1 guarantees each shipped subgraph has
   ``O(n)`` edges w.h.p. — the substrate *enforces* this against the word
   budget rather than assuming it.
3. Once the next rank would exceed ``n / polylog(n)`` the maximum degree is
   polylog w.h.p., and the sparsified finish (:mod:`repro.core.sparsified_mis`)
   completes the MIS in ``O(log log Δ)`` further rounds.

The output is *identical* to the sequential randomized greedy MIS under the
same permutation for the prefix portion; the finish switches processes
(as the paper does) so overall agreement is with the hybrid, not pure
greedy.

Hot-path layout: the residual graph is never materialized as mutable
adjacency sets.  The input is converted once to a
:class:`~repro.graph.csr.CSRGraph` and the residual is an ``alive``
boolean mask over it — valid because greedy deletion only ever *isolates*
vertices, so the residual edge set is exactly "original edges with both
endpoints alive".  Prefix selection, the shipped-edge count,
closed-neighborhood removal, and the per-phase residual-degree scan are
all vectorized kernels, and the result is a vertex mask; no phase
materializes an O(n) Python set or edge list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.core.config import MISConfig
from repro.core.sparsified_mis import ship_edges_to_leader, sparsified_mis
from repro.dist.executor import in_process
from repro.govern.governor import governed_broadcast
from repro.graph.csr import CSRGraph, as_csr
from repro.graph.graph import Graph
from repro.mpc.spec import ClusterSpec
from repro.mpc.words import id_words
from repro.utils import counter_rng
from repro.utils.rng import SeedLike, make_rng


@dataclass
class MISResult:
    """Outcome of the MPC MIS algorithm.

    Attributes
    ----------
    mis:
        The computed maximal independent set, as an ascending ``int64``
        array (out-of-core runs never materialize Python sets).
    rounds:
        Total MPC rounds consumed (measured by the cluster).
    prefix_phases:
        Number of rank-prefix iterations executed.
    max_shipped_edges:
        Largest prefix subgraph (in edges) shipped to one machine — the
        quantity Lemma 3.1 bounds by ``O(n)``.
    shipped_edges_per_phase:
        Edge count shipped in each prefix phase, for the E2 experiment.
    """

    mis: np.ndarray
    rounds: int
    prefix_phases: int
    max_shipped_edges: int
    shipped_edges_per_phase: List[int] = field(default_factory=list)
    luby_rounds_simulated: int = 0
    peak_words: int = 0
    total_comm_words: int = 0


def rank_schedule(n: int, max_degree: int, config: MISConfig) -> List[int]:
    """The prefix ranks ``r_i = n / Δ^(α^i)`` until the polylog floor.

    Returns the strictly increasing list of rank cutoffs; empty when the
    graph is already in the sparse regime (``Δ`` at most the threshold).
    """
    if n == 0 or max_degree <= config.sparse_degree_threshold(n):
        return []
    rank_floor = max(1, n // config.sparse_degree_threshold(n))
    cutoffs: List[int] = []
    exponent = config.alpha
    while True:
        rank = int(n / (max_degree ** exponent))
        rank = max(rank, 1)
        if rank >= rank_floor:
            cutoffs.append(rank_floor)
            break
        if not cutoffs or rank > cutoffs[-1]:
            cutoffs.append(rank)
        exponent *= config.alpha
        if len(cutoffs) > 4 * math.ceil(math.log2(max(4, n))):
            # Defensive: the schedule provably terminates in
            # O(log log Δ) steps; this cap converts a logic bug into a
            # loud failure instead of an infinite loop.
            raise RuntimeError("rank schedule failed to reach the floor")
    return cutoffs


def draw_ranks(rng, n: int) -> np.ndarray:
    """The shared random permutation as ranks: ``rank[v]`` in ``[0, n)``, all
    distinct.

    One counter-keyed Philox draw (``"mis-permutation"``), no O(n) Python
    shuffle; the MPC and CONGESTED-CLIQUE algorithms both sample it here.
    """
    key = counter_rng.derive_key(rng.getrandbits(64), "mis-permutation")
    ranks = np.empty(n, dtype=np.int64)
    ranks[counter_rng.permutation(key, n)] = np.arange(n, dtype=np.int64)
    return ranks


def mis_mpc(
    graph: Union[Graph, CSRGraph],
    seed: SeedLike = None,
    config: Optional[MISConfig] = None,
    executor=None,
    governor=None,
) -> MISResult:
    """Compute an MIS of ``graph`` on a simulated MPC cluster.

    Memory per machine is ``config.memory_factor * n`` words; the number of
    machines is chosen as ``ceil(total_words / S) + 1`` so the input fits,
    matching the ``S * m = Θ(N)`` regime of Section 1.1.1.

    Each phase's single-leader greedy prefix walk runs as one
    ``mis.prefix_greedy`` task on the ``executor`` (in process when it
    is ``None``) against the session's CSR + rank arrays — a pure
    function of its inputs, so output-neutral; the permutation draw,
    residual masks, and cluster accounting stay driver-side.

    A ``governor`` (:class:`repro.govern.Governor`) chunks over-budget
    bulk operations — the permutation broadcast, the per-phase prefix
    shipment, the result broadcasts, and the sparsified finish's
    leftover shipment — into sequential sub-batches within the soft
    watermark.  Chunking here is *solution-preserving*: the leader's
    rank-ordered greedy walk decomposes exactly over rank-contiguous
    sub-batches (each vertex's outcome depends only on earlier-ranked
    decisions, which the carried ``chosen`` mask holds), so governed MIS
    runs return the identical set and only the round/peak accounting
    moves.
    """
    config = config or MISConfig()
    rng = make_rng(seed)
    n = graph.num_vertices
    if n == 0:
        return MISResult(
            mis=np.empty(0, dtype=np.int64),
            rounds=0,
            prefix_phases=0,
            max_shipped_edges=0,
        )

    spec = ClusterSpec.from_graph(graph, config.memory_factor, machines="fit")
    cluster = spec.build_cluster()
    csr = as_csr(graph)
    if governor is not None:
        governor.bind(cluster)
        from repro.graph.statistics import load_summary

        governor.estimator.prime(load_summary(csr))

    cutoffs = rank_schedule(n, csr.max_degree(), config)
    # The pure-sparse regime never reads a rank, so it draws none.
    ranks = draw_ranks(rng, n) if cutoffs else None
    governed_broadcast(cluster, n, "mis: broadcast permutation", governor)

    # ``alive`` tracks the residual graph (False = isolated by a removed
    # closed neighborhood); ``decided`` additionally covers dominated
    # prefix vertices whose edges survive.
    alive = np.ones(n, dtype=bool)
    decided = np.zeros(n, dtype=bool)
    in_mis = np.zeros(n, dtype=bool)

    shipped_sizes: List[int] = []
    previous_cutoff = 0
    executor = in_process(executor)
    session_key = None
    try:
        if cutoffs:
            # Only prefix phases read the session: the pure-sparse regime
            # installs nothing, so it stays residency-bounded.
            session_key = executor.open_session(
                "mis",
                {
                    "indptr": csr.indptr,
                    "indices": csr.indices,
                    "ranks": ranks,
                },
            )
        for phase_index, cutoff in enumerate(cutoffs):
            window = (ranks >= previous_cutoff) & (ranks < cutoff) & ~decided
            prefix = np.flatnonzero(window)
            # Prefix vertices are undecided, hence never isolated, so their
            # residual-induced edges coincide with original-graph edges.
            shipped = csr.count_edges_within(window)
            ship_edges_to_leader(
                cluster,
                "prefix_edges",
                shipped,
                f"mis: ship prefix phase {phase_index}",
                governor,
            )
            shipped_sizes.append(shipped)

            # The single-leader phase: one worker walks the prefix
            # against the shared CSR/rank arrays.
            [new_mis] = executor.map_tasks(
                "mis.prefix_greedy",
                [prefix],
                shared={"session": session_key},
                phase="mis-prefix",
            )
            governed_broadcast(
                cluster,
                id_words(len(new_mis)),
                f"mis: broadcast phase {phase_index} result",
                governor,
            )
            # The chosen vertices are independent, so their closed
            # neighborhoods can be removed (and marked decided) in one batch,
            # reusing a single ragged neighbor gather for both masks.
            in_mis[new_mis] = True
            chosen_neighbors = csr.neighbors_bulk(new_mis)
            alive = alive.copy()
            alive[new_mis] = False
            alive[chosen_neighbors] = False
            decided[new_mis] = True
            decided[chosen_neighbors] = True
            # Vertices of the prefix that were dominated are also decided.
            decided |= window
            previous_cutoff = cutoff
    finally:
        if session_key is not None:
            executor.close_session(session_key)

    # With no prefix phases, `alive` is still all-True and filter_edges
    # would only copy the (possibly out-of-core) arrays; pass the graph
    # itself so the finish stays residency-bounded.
    finish = sparsified_mis(
        csr.filter_edges(alive) if cutoffs else csr,
        active=~decided,
        seed=rng.getrandbits(64),
        cluster=cluster,
        rounds_factor=config.luby_rounds_factor,
        strategy=config.sparse_strategy,
        governor=governor,
    )
    in_mis[finish.mis] = True

    return MISResult(
        mis=np.flatnonzero(in_mis),
        rounds=cluster.rounds,
        prefix_phases=len(cutoffs),
        max_shipped_edges=max(shipped_sizes, default=0),
        shipped_edges_per_phase=shipped_sizes,
        luby_rounds_simulated=finish.luby_rounds_simulated,
        peak_words=cluster.peak_words(),
        total_comm_words=cluster.total_comm_words,
    )
