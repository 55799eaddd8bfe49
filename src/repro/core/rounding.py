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
round.  Each candidate proposes with probability at most 1/10; only those
whose roll is below their *reach*, the sum of their proposal
probabilities, are walked (see :func:`round_fractional_matching`).

:func:`round_fractional_matching` is the one entry point: it reads a
:class:`~repro.core.fractional.FractionalMatching`'s ``(edges, x)`` rows
directly, and the Theorem 1.2 driver (:mod:`repro.core.integral`) calls it
once per pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.fractional import FractionalMatching
from repro.graph.csr import vertex_ids
from repro.utils.rng import SeedLike, make_rng

# The paper's dampening constant: proposals fire with probability x_e / 10.
PROPOSAL_DAMPENING = 10.0


@dataclass(frozen=True)
class RoundingOutcome:
    """Result of one rounding pass; ``matching`` is the good rows, ascending."""

    matching: np.ndarray
    proposals: int
    collisions: int


def round_fractional_matching(
    fractional: FractionalMatching,
    candidates: Iterable[int],
    seed: SeedLike = None,
) -> RoundingOutcome:
    """Round ``fractional`` to an integral matching (Lemma 5.1).

    ``candidates`` is the high-load set ``C~``; only its members propose,
    each once, in ascending order.  Each candidate ``v`` draws one
    ``rng.random()`` roll and walks its incident positive-weight edges in
    row order, adding ``x / 10`` to a running sum; it proposes the first
    neighbour whose sum exceeds the roll, or nothing.  Only proposers are
    walked here: a candidate's *reach*, one ``np.bincount`` of its shares,
    adds them in entry order from 0.0 like the walk, so it is the walk's
    final sum bit for bit; as nonnegative sums never decrease under
    round-to-nearest, a candidate proposes exactly when its roll is below
    its reach.  The proposers' sums are then taken one incident position
    at a time, the scalar walk's additions (a global cumsum minus offsets
    would change low bits).  The good edges are always a valid matching.
    """
    # Sort and drop repeats: np.unique's hash path is slower on int ids.
    candidates = np.sort(vertex_ids(candidates))
    candidates = candidates[np.diff(candidates, prepend=candidates[:1] - 1) != 0]
    k = len(candidates)
    if k == 0:
        return RoundingOutcome(
            matching=np.empty((0, 2), dtype=np.int64), proposals=0, collisions=0
        )
    random = make_rng(seed).random
    rolls = np.array([random() for _ in range(k)], dtype=np.float64)

    # Incident entries: each edge offers itself to u, then to v, in edge
    # order.  ``slot`` maps a vertex to its candidate index, every other
    # vertex to k; negative ids, a sorted prefix, have no edges.
    keep = fractional.x > 0.0
    ends = np.compress(keep, fractional.edges, axis=0).ravel()
    shares = np.repeat(fractional.x[keep] / PROPOSAL_DAMPENING, 2)
    span = max(fractional.graph.num_vertices, int(candidates[-1]) + 1)
    slot = np.full(span, k, dtype=np.int64)
    first = int(np.searchsorted(candidates, 0))
    slot[candidates[first:]] = np.arange(first, k)
    group = slot[ends]

    # Reach decides who proposes; only the proposers' entries are grouped,
    # and a stable sort keeps each one's entries in entry order.
    reach = np.bincount(group, weights=shares, minlength=k + 1)
    proposing = np.append(rolls < reach[:k], False)
    proposers = np.flatnonzero(proposing)
    offered = np.flatnonzero(proposing[group])
    local = (np.cumsum(proposing) - 1)[group[offered]]
    order = offered[np.argsort(local, kind="stable")]
    others = ends[order ^ 1]
    shares = shares[order]
    counts = np.bincount(local, minlength=len(proposers))
    starts = np.cumsum(counts) - counts

    # Sweep incident positions; ``longest`` lists proposers by count,
    # so the ones with a p-th entry are a prefix of it.
    longest = np.argsort(-counts, kind="stable")
    sorted_counts = counts[longest]
    rolls = rolls[proposers]
    cumulative = np.zeros(len(proposers), dtype=np.float64)
    chosen = np.zeros(len(proposers), dtype=bool)
    partner = np.zeros(len(proposers), dtype=np.int64)
    for position in range(int(counts.max(initial=0))):
        rows = longest[: np.count_nonzero(sorted_counts > position)]
        slots = starts[rows] + position
        cumulative[rows] += shares[slots]
        fired = ~chosen[rows] & (rolls[rows] < cumulative[rows])
        chosen[rows[fired]] = True
        partner[rows[fired]] = others[slots[fired]]

    return _resolve_proposals(candidates[proposers], partner, span)


def _resolve_proposals(
    proposer_ids: np.ndarray, partner: np.ndarray, span: int
) -> RoundingOutcome:
    """H and its good edges from one pass's proposals.

    ``proposer_ids[i]`` proposed the edge to ``partner[i]``; both are ids
    in ``[0, span)``, so the key ``lo * span + hi`` orders edges as the
    rows ``(lo, hi)`` do.  H is the distinct keys, ascending (an edge
    proposed by both endpoints counts once); an edge is good when no
    other edge of H touches it, i.e. both its endpoints are touched once.
    """
    keys = np.sort(
        np.minimum(proposer_ids, partner) * span
        + np.maximum(proposer_ids, partner)
    )
    keys = keys[np.diff(keys, prepend=-1) != 0]
    proposed = np.column_stack(np.divmod(keys, span))
    touches = np.bincount(proposed.ravel(), minlength=span)
    matching = proposed[(touches[proposed] == 1).all(axis=1)]
    return RoundingOutcome(
        matching=matching,
        proposals=len(proposed),
        collisions=len(proposed) - len(matching),
    )
