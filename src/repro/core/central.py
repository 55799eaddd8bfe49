"""The centralized fractional matching / vertex cover algorithms.

``Central`` (Section 4.1): start every edge at ``x_e = 1/n``; each
iteration freeze every vertex whose load reaches ``1 - 2ε`` (with all its
edges) and multiply every still-active edge by ``1/(1-ε)``.  Terminates in
``O(log n / ε)`` iterations with a ``(2+5ε)``-approximate fractional
matching and vertex cover (Lemma 4.1).

``Central-Rand`` (Section 4.3) is the same process with per-(vertex,
iteration) random thresholds ``T_{v,t} ∈ [1-4ε, 1-2ε]`` — the randomness
that makes the MPC simulation's estimate errors survivable (Lemma 4.11).

The implementation tracks, per vertex, the iteration at which it froze.
Because *every* active edge is scaled by the same factor each iteration,
the final weight of edge ``e = {u, v}`` is determined by
``t'(e) = min(freeze_iteration(u), freeze_iteration(v))`` alone:
``x_e = x_0 / (1-ε)^{t'(e)}``.  This is the same observation the paper's
Line (g) of MPC-Simulation exploits, and it makes each iteration ``O(n)``
after an ``O(m)`` setup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.fractional import FractionalMatching
from repro.core.thresholds import ThresholdOracle, fixed_oracle
from repro.graph.graph import Edge, Graph
from repro.utils.rng import SeedLike
from repro.utils.trace import Trace, maybe_record
from repro.utils.validation import require, require_epsilon

# Freeze iteration sentinel for "never froze during the run" (all edges are
# frozen at termination, so this only labels isolated vertices).
NEVER_FROZEN = -1


@dataclass
class CentralResult:
    """Outcome of Central / Central-Rand.

    Attributes
    ----------
    matching:
        The fractional matching and the frozen-vertex cover.
    iterations:
        Iterations executed until every edge froze.
    freeze_iteration:
        Per-vertex iteration index at which the vertex froze
        (:data:`NEVER_FROZEN` for vertices that never did).
    """

    matching: FractionalMatching
    iterations: int
    freeze_iteration: Dict[int, int] = field(default_factory=dict)

    @property
    def vertex_cover(self) -> Set[int]:
        """The frozen-vertex cover."""
        return self.matching.vertex_cover

    @property
    def weight(self) -> float:
        """Total fractional weight."""
        return self.matching.weight()


def central_fractional_matching(
    graph: Graph,
    epsilon: float = 0.1,
    randomized_thresholds: bool = False,
    seed: SeedLike = None,
    initial_weight: Optional[float] = None,
    trace: Optional[Trace] = None,
    max_iterations: Optional[int] = None,
) -> CentralResult:
    """Run Central (or Central-Rand) to completion on ``graph``.

    Parameters
    ----------
    epsilon:
        Approximation parameter ``ε ∈ (0, 1/2)``.
    randomized_thresholds:
        ``False`` runs Central (fixed threshold ``1-2ε``); ``True`` runs
        Central-Rand with ``T_{v,t} ~ U[1-4ε, 1-2ε]``.
    initial_weight:
        Starting edge weight; defaults to ``1/n`` as in the paper.  The MPC
        simulation uses ``(1-2ε)/n``.
    max_iterations:
        Safety cap; defaults to a generous multiple of the ``O(log n / ε)``
        bound and raises if exceeded (a termination bug should be loud).
    """
    require_epsilon(epsilon)
    n = graph.num_vertices
    if n == 0 or graph.num_edges == 0:
        return CentralResult(
            matching=FractionalMatching(graph=graph, weights={}, vertex_cover=set()),
            iterations=0,
            freeze_iteration={},
        )

    oracle = (
        ThresholdOracle(1.0 - 4.0 * epsilon, 1.0 - 2.0 * epsilon, seed=seed)
        if randomized_thresholds
        else fixed_oracle(1.0 - 2.0 * epsilon)
    )
    x0 = initial_weight if initial_weight is not None else 1.0 / n
    require(x0 > 0, "initial_weight must be positive")
    if max_iterations is None:
        max_iterations = 10 + 4 * int(math.log(n + 1) / -math.log(1.0 - epsilon))

    outcome = run_freezing_process(
        graph=graph,
        epsilon=epsilon,
        oracle=oracle,
        initial_weight=x0,
        max_iterations=max_iterations,
        trace=trace,
    )
    return outcome


def run_freezing_process(
    graph: Graph,
    epsilon: float,
    oracle: ThresholdOracle,
    initial_weight: float,
    max_iterations: int,
    trace: Optional[Trace] = None,
) -> CentralResult:
    """The shared freezing loop behind Central and Central-Rand.

    Exposed separately so the concentration experiment (E11) can run the
    reference process with the *same* :class:`ThresholdOracle` instance the
    MPC simulation consumes.
    """
    n = graph.num_vertices
    growth = 1.0 / (1.0 - epsilon)

    active_degree = graph.degrees()
    frozen: Dict[int, int] = {}
    frozen_load: List[float] = [0.0] * n  # weight of already-frozen incident edges
    active: Set[int] = {v for v in range(n) if active_degree[v] > 0}

    weight_t = initial_weight
    iteration = 0
    while active:
        if iteration >= max_iterations:
            raise RuntimeError(
                f"freezing process exceeded {max_iterations} iterations; "
                "this indicates a termination bug or a degenerate epsilon"
            )
        # The definition ``load >= T_{v,t}`` on every active vertex, with
        # no band short-circuit, so the reference stays independent of
        # ThresholdOracle.crosses_batch that the MPC path decides with.
        candidates = list(active)
        loads = [frozen_load[v] + active_degree[v] * weight_t for v in candidates]
        crossed = np.asarray(loads) >= oracle.thresholds_batch(candidates, iteration)
        to_freeze = [v for v, hit in zip(candidates, crossed.tolist()) if hit]
        for v in to_freeze:
            frozen[v] = iteration
            active.discard(v)
        # Freezing an edge fixes its weight at the current value; update the
        # neighbors' frozen load and active degree.  An edge freezes when its
        # *first* endpoint freezes.
        newly_frozen = set(to_freeze)
        for v in to_freeze:
            for u in graph.neighbors_view(v):
                if u in newly_frozen:
                    # Edge between two same-iteration freezes: count once by
                    # the smaller endpoint.
                    if u < v:
                        continue
                    frozen_load[v] += weight_t
                    frozen_load[u] += weight_t
                    active_degree[v] -= 1
                    active_degree[u] -= 1
                elif u in frozen:
                    continue  # edge already frozen in an earlier iteration
                else:
                    frozen_load[u] += weight_t
                    active_degree[u] -= 1
                    active_degree[v] -= 1
                    frozen_load[v] += weight_t
        # Drop vertices whose every edge froze; they stay unfrozen (not in
        # the cover) but have no active weight left to grow.
        for v in list(active):
            if active_degree[v] == 0:
                active.discard(v)
        weight_t *= growth
        iteration += 1
        maybe_record(
            trace,
            "central_iteration",
            iteration=iteration,
            frozen_vertices=len(frozen),
            active_vertices=len(active),
        )

    weights = edge_weights_from_freezes(
        graph, frozen, initial_weight, epsilon, final_iteration=iteration
    )
    freeze_map = {v: frozen.get(v, NEVER_FROZEN) for v in range(n)}
    matching = FractionalMatching(
        graph=graph, weights=weights, vertex_cover=set(frozen)
    )
    return CentralResult(
        matching=matching, iterations=iteration, freeze_iteration=freeze_map
    )


def edge_weights_from_freezes(
    graph: Graph,
    frozen: Dict[int, int],
    initial_weight: float,
    epsilon: float,
    final_iteration: int,
) -> Dict[Edge, float]:
    """Reconstruct ``x`` from per-vertex freeze iterations.

    ``x_e = initial_weight / (1-ε)^{t'}`` where ``t'`` is the first
    iteration at which an endpoint of ``e`` froze (both endpoints unfrozen
    means the edge grew until the process ended — only possible when the
    process was truncated externally).
    """
    growth = 1.0 / (1.0 - epsilon)
    weights: Dict[Edge, float] = {}
    for u, v in graph.edges():
        t_u = frozen.get(u, final_iteration)
        t_v = frozen.get(v, final_iteration)
        t_freeze = min(t_u, t_v)
        weights[(u, v)] = initial_weight * (growth ** t_freeze)
    return weights
