"""Randomized rounding of fractional matchings — Lemma 5.1.

Given a fractional matching ``x`` and a set ``C~`` of vertices whose load
is at least ``1 - β`` (``β ≤ 1/2``), the rounding procedure:

* every vertex ``v ∈ C~`` independently draws ``X_v``: neighbor ``u`` with
  probability ``x_{uv} / 10``, or the null symbol with the remaining
  probability (≥ 9/10);
* the proposed edges ``H = {{v, X_v}}`` are collected, and an edge is
  *good* when no other edge of ``H`` touches it;
* the good edges — a matching by construction — are the output.

The paper proves via McDiarmid's inequality that the output has size at
least ``|C~| / 50`` with probability ``1 - 2 exp(-|C~|/5000)``; in practice
the constant is far better (the E6 experiment measures it).  Every vertex
decides from its own neighborhood only, so the procedure is a single MPC
round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Set

import numpy as np

from repro.graph.graph import Edge, Graph
from repro.utils.rng import SeedLike, make_rng

# The paper's dampening constant: proposals fire with probability x_e / 10.
PROPOSAL_DAMPENING = 10.0


@dataclass(frozen=True)
class RoundingOutcome:
    """Result of one rounding pass."""

    matching: Set[Edge]
    proposals: int
    collisions: int


def round_fractional_matching(
    graph: Graph,
    weights: Mapping[Edge, float],
    candidates: Iterable[int],
    seed: SeedLike = None,
) -> Set[Edge]:
    """Round ``weights`` to an integral matching (Lemma 5.1).

    ``candidates`` is the high-load set ``C~``; only its members propose.
    Returns the set of good edges — always a valid matching.
    """
    return round_fractional_matching_detailed(graph, weights, candidates, seed).matching


def round_fractional_matching_detailed(
    graph: Graph,
    weights: Mapping[Edge, float],
    candidates: Iterable[int],
    seed: SeedLike = None,
) -> RoundingOutcome:
    """As :func:`round_fractional_matching` but with process statistics.

    The map's iteration order is the proposal order (see
    :func:`round_edge_arrays`).
    """
    edges = np.array(list(weights), dtype=np.int64).reshape(-1, 2)
    x = np.fromiter(weights.values(), dtype=np.float64, count=len(weights))
    return round_edge_arrays(
        edges[:, 0],
        edges[:, 1],
        x,
        np.array(sorted(set(candidates)), dtype=np.int64),
        seed,
    )


def round_edge_arrays(
    eu: np.ndarray,
    ev: np.ndarray,
    x: np.ndarray,
    candidates: np.ndarray,
    seed: SeedLike = None,
) -> RoundingOutcome:
    """Lemma 5.1 rounding over edge arrays ``(eu, ev, x)``.

    ``candidates`` is ``C~``, sorted ascending without repeats.  Each
    candidate ``v``, in that order, draws one ``rng.random()`` roll and
    walks its incident positive-weight edges in array order, adding
    ``x / 10`` to a running sum; it proposes the first neighbour whose sum
    exceeds the roll, or nothing.  The running sums are accumulated one
    incident position at a time across all candidates, so each
    candidate's sum is the same sequence of float additions as the scalar
    walk (a global cumsum minus offsets would change low bits).
    """
    if len(candidates) == 0:
        return RoundingOutcome(matching=set(), proposals=0, collisions=0)
    random = make_rng(seed).random
    rolls = np.array([random() for _ in range(len(candidates))], dtype=np.float64)

    # Incident entries: each edge offers itself to u, then to v, in edge
    # order; a stable sort groups them by candidate without reordering.
    keep = x > 0.0
    ends = np.column_stack((eu[keep], ev[keep])).ravel()
    others = np.column_stack((ev[keep], eu[keep])).ravel()
    shares = np.repeat(x[keep] / PROPOSAL_DAMPENING, 2)
    group = np.minimum(np.searchsorted(candidates, ends), len(candidates) - 1)
    offered = candidates[group] == ends
    order = np.argsort(group[offered], kind="stable")
    group = group[offered][order]
    others = others[offered][order]
    shares = shares[offered][order]
    counts = np.bincount(group, minlength=len(candidates))
    starts = np.cumsum(counts) - counts

    # Sweep incident positions; ``longest`` lists candidates by count,
    # so the ones with a p-th entry are a prefix of it.
    longest = np.argsort(-counts, kind="stable")
    sorted_counts = counts[longest]
    cumulative = np.zeros(len(candidates), dtype=np.float64)
    chosen = np.zeros(len(candidates), dtype=bool)
    partner = np.zeros(len(candidates), dtype=np.int64)
    for position in range(int(counts.max(initial=0))):
        rows = longest[: np.count_nonzero(sorted_counts > position)]
        slots = starts[rows] + position
        cumulative[rows] += shares[slots]
        fired = ~chosen[rows] & (rolls[rows] < cumulative[rows])
        chosen[rows[fired]] = True
        partner[rows[fired]] = others[slots[fired]]

    # H: distinct proposed edges (an edge proposed by both endpoints
    # counts once); an edge is good when no other edge of H touches it.
    lo = np.minimum(candidates[chosen], partner[chosen])
    hi = np.maximum(candidates[chosen], partner[chosen])
    proposed = np.unique(np.column_stack((lo, hi)), axis=0)
    _, slot_of, touches = np.unique(
        proposed.ravel(), return_inverse=True, return_counts=True
    )
    good = (touches[slot_of].reshape(-1, 2) == 1).all(axis=1)
    matching = set(zip(proposed[good, 0].tolist(), proposed[good, 1].tolist()))
    return RoundingOutcome(
        matching=matching,
        proposals=len(proposed),
        collisions=len(proposed) - len(matching),
    )
