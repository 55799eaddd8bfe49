"""Sparsified MIS finish for polylog-degree graphs.

Stands in for Theorem 2.1 ([Gha17]) exactly where the paper uses it: once
the rank-prefix phases have driven the maximum degree below polylog, finish
the MIS in ``O(log log Δ')`` rounds.

Our substitute (DESIGN.md §5, substitution 1) is a *round-compressed local
process*: the per-vertex outcome of ``R`` rounds of a LOCAL MIS process is
a deterministic function of the radius-``R`` ball around the vertex and the
shared randomness, so a cluster that gathers balls by doubling simulates
all ``R`` rounds in ``ceil(log2 R) + 1`` MPC/CONGESTED-CLIQUE rounds.  With
``Δ' ≤ polylog n`` we take ``R = Θ(log m)``, i.e. ``O(log log n)``
compressed rounds; the leftover graph is then small enough to ship to a
single machine (validated against the word budget) and finished greedily.

Two LOCAL processes share one round loop over the residual's both-active
adjacency slots:

* ``"luby"`` ([Lub86]): every active vertex draws a uniform value and joins
  when it beats every active neighbor (ties broken by vertex id).
* ``"ghaffari"`` (the desire-level process of [Gha16], closer to what
  [Gha17] compresses): each vertex keeps a desire level ``p_v`` (initially
  1/2) and marks itself when its draw is below ``p_v``; a marked vertex
  with no marked active neighbor joins.  Against the pre-removal residual,
  the effective degree ``d_v = Σ_{u ∈ N(v)} p_u`` then halves ``p_v`` when
  ``d_v ≥ 2`` and otherwise doubles it, capped at 1/2.  [Gha16] proves
  each vertex is decided within ``O(log Δ + log 1/δ)`` rounds with
  probability ``1 - δ``.

Vertex ``v``'s round-``r`` draw is ``counter_rng.uniform01(key, v, r)``, a
pure function of ``(seed, v, r)`` that does not depend on how many vertices
drew before it — which is what makes each outcome a function of the ball,
and the compression sound.  We execute the process centrally (the outputs
equal the ball-local simulation's because the randomness is shared) and
charge rounds by the exponentiation schedule.

Residency: adjacency is consumed through :meth:`CSRGraph.adjacency_chunks`,
so on an :class:`~repro.ooc.MMapCSRGraph` one chunk of edges is resident at
a time; once the residual fits :data:`_COMPACT_SLOT_BUDGET` its slots are
compacted into RAM and later rounds never touch the backing file.  The
result is an ascending ``int64`` array, never a Python set, and it is
identical for in-RAM and memory-mapped representations of one graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph, as_csr, vertex_ids
from repro.graph.graph import Graph
from repro.mpc.ball import ball_gather_rounds
from repro.mpc.cluster import MPCCluster
from repro.mpc.words import edge_words
from repro.utils import counter_rng
from repro.utils.rng import SeedLike, make_rng

STRATEGIES = ("luby", "ghaffari")

# The desire-level rule of [Gha16].  Desires stay powers of two, so the
# effective-degree sums below are exact (hence independent of how the
# adjacency is chunked) unless one vertex's neighbor desires span more
# than ~50 binades.
INITIAL_DESIRE = 0.5
DESIRE_CAP = 0.5
EFFECTIVE_DEGREE_THRESHOLD = 2.0

# Compaction threshold: once the residual's both-active slot count fits
# this many entries, the loop switches from chunked full-graph scans to an
# in-RAM compacted slot list (~64 MB at the cap — the two int64 slot
# arrays plus their filter copies are resident simultaneously, and the cap
# is part of the solve-side RSS budget the 10M rung is gated on).  Both
# processes shrink the residual geometrically, so the switch still lands
# within the first handful of rounds.
_COMPACT_SLOT_BUDGET = 4_000_000

# Counter draws are pure functions of (key, id, round), so they can be
# computed over bounded id blocks: the flatnonzero ids, the uint64
# mixing temporaries, and the float conversion then peak at block size
# instead of O(n) each (several such arrays are alive at once inside
# one vectorized draw).
_DRAW_BLOCK = 2_000_000


@dataclass(frozen=True)
class SparsifiedMISOutcome:
    """Result of the sparsified finish; ``mis`` is an ascending ``int64`` array."""

    mis: np.ndarray
    rounds_charged: int
    luby_rounds_simulated: int
    leftover_edges: int


def ship_edges_to_leader(
    cluster: MPCCluster,
    key: str,
    count: int,
    context: str,
    governor=None,
) -> int:
    """Ship ``count`` edges to machine 0 by word count; returns rounds charged.

    One ship when ungoverned or within the soft watermark.  Over it, the
    edges go out in sequential balanced sub-batches stored under the same
    key, so the leader's peak is the largest batch, not the total.  Only
    the word counts are modeled (the leader's walks read the shared CSR),
    so chunking moves the round and peak accounting, never the solution.
    """
    words = edge_words(count)
    sizes = None if governor is None else governor.plan_chunks(words, context)
    if sizes is None:
        cluster.ship_to_machine(0, key, None, words, context=context)
        return 1
    chunks = len(sizes)
    bounds = np.linspace(0, count, chunks + 1).astype(np.int64)
    for index in range(chunks):
        cluster.ship_to_machine(
            0,
            key,
            None,
            edge_words(int(bounds[index + 1] - bounds[index])),
            context=f"{context} [chunk {index + 1}/{chunks}]",
        )
    return chunks


def sparsified_mis(
    graph: Union[Graph, CSRGraph],
    active: Union[Iterable[int], np.ndarray, None] = None,
    seed: SeedLike = None,
    cluster: Optional[MPCCluster] = None,
    rounds_factor: float = 2.0,
    strategy: str = "luby",
    governor=None,
) -> SparsifiedMISOutcome:
    """Compute an MIS of ``graph`` restricted to ``active`` vertices.

    Parameters
    ----------
    graph:
        The residual graph — set-based or CSR (vertices outside ``active``
        are ignored and must be isolated from it for maximality semantics
        to make sense).
    active:
        Vertices still undecided, as ids or a boolean mask (never
        mutated); defaults to all vertices.
    cluster:
        If given, rounds are charged to it and the leftover-graph shipment
        is memory-validated against its word budget; a leftover too large
        for machine 0 gets more process rounds first.
    rounds_factor:
        Simulate ``ceil(rounds_factor * log2(m + 2))`` LOCAL rounds before
        the leader finish.
    strategy:
        ``"luby"`` (default) or ``"ghaffari"``; both have ball-local
        outputs, so the exponentiation charging is identical.
    governor:
        Optional :class:`repro.govern.Governor`; chunks the leftover
        shipment (:func:`ship_edges_to_leader`) when it would cross the
        soft watermark.  Solution-preserving.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown sparsified-MIS strategy {strategy!r}")
    csr = as_csr(graph)
    n = csr.num_vertices
    active_mask = _active_mask(active, n)
    key = counter_rng.derive_key(
        make_rng(seed).getrandbits(64), f"sparsified-mis-{strategy}"
    )
    num_edges = csr.count_edges_within(active_mask)
    local_rounds = max(1, math.ceil(rounds_factor * math.log2(num_edges + 2)))
    rounds_charged = ball_gather_rounds(local_rounds)
    if cluster is not None:
        cluster.charge_rounds(rounds_charged, "sparsified-mis: ball gathering")

    winners_of = luby_winners if strategy == "luby" else GhaffariDesires(n).winners
    slots = _ResidualSlots(csr)
    mis_mask = np.zeros(n, dtype=bool)
    draw = np.zeros(n, dtype=np.float64)
    simulated = 0
    while True:
        if simulated >= local_rounds or not active_mask.any():
            leftover_count = slots.count_edges_within(active_mask)
            words = edge_words(leftover_count)
            # A governor chunks anything over its soft watermark.
            chunked = governor is not None and words > governor.soft_words
            if cluster is None or chunked or cluster.fits_leader(words, governor):
                break
            # The leftover fits only w.h.p. as n grows; a small dense input
            # runs more process rounds, one charged round each, until it does.
            cluster.charge_rounds(1, "sparsified-mis: extra round to fit leader")
            rounds_charged += 1
        for block_lo in range(0, n, _DRAW_BLOCK):
            ids = np.flatnonzero(active_mask[block_lo : block_lo + _DRAW_BLOCK])
            if ids.size:
                ids += block_lo
                draw[ids] = counter_rng.uniform01(key, ids, simulated)
        winners_mask = winners_of(draw, active_mask, slots.blocks(active_mask))
        simulated += 1
        mis_mask |= winners_mask
        active_mask = slots.remove_closed_neighborhoods(winners_mask, active_mask)

    if cluster is not None:
        rounds_charged += ship_edges_to_leader(
            cluster,
            "sparsified_leftover",
            leftover_count,
            "sparsified-mis: leftover to leader",
            governor,
        )
        cluster.charge_rounds(1, "sparsified-mis: broadcast result")
        rounds_charged += 1

    # Leader finish: greedy over the leftover in ascending ids, then
    # isolated actives join.  No active vertex neighbors a process winner,
    # so testing the full neighbor slice against ``mis_mask`` tests
    # exactly the leader's earlier choices.
    indptr = csr.indptr
    indices = csr.indices
    for v in np.flatnonzero(active_mask).tolist():
        if not mis_mask[indices[indptr[v] : indptr[v + 1]]].any():
            mis_mask[v] = True

    return SparsifiedMISOutcome(
        mis=np.flatnonzero(mis_mask),
        rounds_charged=rounds_charged,
        luby_rounds_simulated=simulated,
        leftover_edges=leftover_count,
    )


def luby_winners(
    draw: np.ndarray,
    active: np.ndarray,
    blocks: Iterable[Tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """One Luby round: the active vertices whose ``(draw, id)`` is smaller
    than every active neighbor's.

    ``blocks`` yields ``(s, t)`` arrays of the directed slots with both
    endpoints active.
    """
    beaten = np.zeros(len(active), dtype=bool)
    for s, t in blocks:
        drawn_t, drawn_s = draw[t], draw[s]
        beats = (drawn_t < drawn_s) | ((drawn_t == drawn_s) & (t < s))
        beaten[s[beats]] = True
    return active & ~beaten


class GhaffariDesires:
    """The desire levels of [Gha16]; each :meth:`winners` call is one round."""

    def __init__(self, n: int) -> None:
        self.desire = np.full(n, INITIAL_DESIRE)

    def winners(
        self,
        draw: np.ndarray,
        active: np.ndarray,
        blocks: Iterable[Tuple[np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """Marked active vertices with no marked active neighbor.

        Also updates every desire from its effective degree, taken against
        the same pre-removal residual (updates and removals are
        simultaneous per round).  ``blocks`` is as for
        :func:`luby_winners`.
        """
        n = len(active)
        marked = active & (draw < self.desire)
        blocked = np.zeros(n, dtype=bool)
        effective = np.zeros(n, dtype=np.float64)
        for s, t in blocks:
            blocked[s[marked[t]]] = True
            effective += np.bincount(s, weights=self.desire[t], minlength=n)
        self.desire = np.where(
            effective >= EFFECTIVE_DEGREE_THRESHOLD,
            self.desire / 2.0,
            np.minimum(2.0 * self.desire, DESIRE_CAP),
        )
        return marked & ~blocked


def _active_mask(
    active: Union[Iterable[int], np.ndarray, None], n: int
) -> np.ndarray:
    """``active`` as a boolean mask over ``range(n)``."""
    if active is None:
        return np.ones(n, dtype=bool)
    if isinstance(active, np.ndarray) and active.dtype == np.bool_:
        if len(active) != n:
            raise ValueError(f"active mask length {len(active)} != n {n}")
        return active
    mask = np.zeros(n, dtype=bool)
    mask[vertex_ids(active)] = True
    return mask


class _ResidualSlots:
    """The residual's both-active directed slots, round by round.

    Until the residual fits :data:`_COMPACT_SLOT_BUDGET`, every round scans
    the graph chunk by chunk; the first scan that fits keeps its slots in
    RAM, and later rounds only filter that list.  Slots arrive in slot
    order either way, so both modes yield the same per-vertex sequences.
    """

    def __init__(self, csr: CSRGraph) -> None:
        self._csr = csr
        self._src: Optional[np.ndarray] = None
        self._dst: Optional[np.ndarray] = None

    def blocks(self, active: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(s, t)`` blocks of the slots with both endpoints active."""
        if self._src is not None:
            keep = active[self._src] & active[self._dst]
            self._src = self._src[keep]
            self._dst = self._dst[keep]
            yield self._src, self._dst
            return
        parts: Optional[list] = []
        collected = 0
        for src, dst in self._csr.adjacency_chunks():
            both = active[src] & active[dst]
            s = src[both]
            t = np.asarray(dst[both])
            yield s, t
            if parts is not None:
                collected += len(s)
                if collected > _COMPACT_SLOT_BUDGET:
                    parts = None
                else:
                    parts.append((s, t))
        if parts is not None and len(parts) == 1:
            [(self._src, self._dst)] = parts
        elif parts is not None:
            empty = np.empty(0, dtype=np.int64)
            self._src = np.concatenate([s for s, _ in parts] or [empty])
            self._dst = np.concatenate([t for _, t in parts] or [empty])

    def remove_closed_neighborhoods(
        self, winners: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """A new active mask without the (independent) winners' closed
        neighborhoods."""
        if self._src is None:
            return self._csr.remove_closed_neighborhoods(
                np.flatnonzero(winners), mask=active
            )
        removed = winners.copy()
        removed[self._dst[winners[self._src]]] = True
        return active & ~removed

    def count_edges_within(self, active: np.ndarray) -> int:
        """Residual edges with both endpoints in ``active``."""
        if self._src is None:
            return self._csr.count_edges_within(active)
        return int(np.count_nonzero(active[self._src] & active[self._dst])) // 2
