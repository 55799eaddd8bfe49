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
``t'(e) = min(freeze_at(u), freeze_at(v))`` alone:
``x_e = x_0 / (1-ε)^{t'(e)}``.  This is the same observation the paper's
Line (g) of MPC-Simulation exploits, and it makes each iteration ``O(n)``
after an ``O(m)`` setup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.fractional import FractionalMatching
from repro.core.thresholds import ThresholdOracle, fixed_oracle
from repro.graph.csr import CSRGraph, as_csr
from repro.graph.graph import Graph
from repro.utils.rng import SeedLike
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
    freeze_at:
        Per-vertex freeze iteration, int64 over ``range(n)``
        (:data:`NEVER_FROZEN` if it never froze).
    """

    matching: FractionalMatching
    iterations: int
    freeze_at: np.ndarray

    @property
    def vertex_cover(self) -> np.ndarray:
        """The frozen-vertex cover, as ascending int64 ids."""
        return self.matching.vertex_cover

    @property
    def weight(self) -> float:
        """Total fractional weight."""
        return self.matching.weight()


# Growth steps between the largest starting load and the threshold
# band's low end ``1 - 4ε``.
START_HEADROOM = 2


def start_weight(csr: CSRGraph, epsilon: float) -> float:
    """The MPC-Simulation starting edge weight
    ``w_0 = (1-4ε)(1-ε)^2 / Δ``.

    Every starting load ``deg(v) · w_0`` is then below the whole
    threshold band ``[1-4ε, 1-2ε]``, and the heaviest vertices reach it
    after :data:`START_HEADROOM` growth steps.  The paper's
    ``(1-2ε)/n`` start also keeps every load under ``1 - 2ε``, but
    spends ``log_{1/(1-ε)}(n/Δ)`` iterations in which no vertex can
    freeze.  Starting inside the band instead (``(1-2ε)/Δ``) lets a
    dense input's first compressed phase freeze most vertices on its
    first, noisiest estimates; their neighbours' true loads then
    overshoot 1 and are removed at Line (i).

    For ``ε ≥ 1/4`` the band reaches down to 0, so no positive load lies
    below it and the start is the band's top, ``(1-2ε)/Δ``.  An edgeless
    graph (``Δ = 0``) divides by 1; nothing reads its weight.
    """
    degree = max(1, csr.max_degree())
    band_low = 1.0 - 4.0 * epsilon
    if band_low <= 0.0:
        return (1.0 - 2.0 * epsilon) / degree
    return band_low * (1.0 - epsilon) ** START_HEADROOM / degree


def central_fractional_matching(
    graph: Union[Graph, CSRGraph],
    epsilon: float = 0.1,
    randomized_thresholds: bool = False,
    seed: SeedLike = None,
    initial_weight: Optional[float] = None,
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
        simulation uses :func:`start_weight`, ``(1-4ε)(1-ε)^2/Δ``.
    max_iterations:
        Safety cap; defaults to a generous multiple of the ``O(log n / ε)``
        bound and raises if exceeded (a termination bug should be loud).
    """
    require_epsilon(epsilon)
    csr = as_csr(graph)
    n = csr.num_vertices
    if n == 0 or csr.num_edges == 0:
        return CentralResult(
            matching=FractionalMatching.empty(csr),
            iterations=0,
            freeze_at=np.full(n, NEVER_FROZEN, dtype=np.int64),
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
        graph=csr,
        epsilon=epsilon,
        oracle=oracle,
        initial_weight=x0,
        max_iterations=max_iterations,
    )
    return outcome


def run_freezing_process(
    graph: Union[Graph, CSRGraph],
    epsilon: float,
    oracle: ThresholdOracle,
    initial_weight: float,
    max_iterations: int,
) -> CentralResult:
    """The shared freezing loop behind Central and Central-Rand.

    Exposed separately so the concentration experiment (E11) can run the
    reference process with the *same* :class:`ThresholdOracle` instance the
    MPC simulation consumes.  Walks the CSR rows, taken once as lists.
    """
    csr = as_csr(graph)
    n = csr.num_vertices
    growth = 1.0 / (1.0 - epsilon)
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()

    active_degree = [hi - lo for lo, hi in zip(indptr, indptr[1:])]
    freeze_at = [NEVER_FROZEN] * n
    frozen_load: List[float] = [0.0] * n  # weight of already-frozen incident edges
    active = {v for v in range(n) if active_degree[v] > 0}

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
            freeze_at[v] = iteration
            active.discard(v)
        # Freezing an edge fixes its weight at the current value; update the
        # neighbors' frozen load and active degree.  An edge freezes when its
        # *first* endpoint freezes.
        newly_frozen = set(to_freeze)
        for v in to_freeze:
            for u in indices[indptr[v] : indptr[v + 1]]:
                if u in newly_frozen:
                    # Edge between two same-iteration freezes: count once by
                    # the smaller endpoint.
                    if u < v:
                        continue
                    frozen_load[v] += weight_t
                    frozen_load[u] += weight_t
                    active_degree[v] -= 1
                    active_degree[u] -= 1
                elif freeze_at[u] != NEVER_FROZEN:
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

    freeze_at = np.array(freeze_at, dtype=np.int64)
    edges, x = edge_weights_from_freezes(
        csr, freeze_at, initial_weight, epsilon, final_iteration=iteration
    )
    return CentralResult(
        matching=FractionalMatching(
            csr, edges, x, np.flatnonzero(freeze_at != NEVER_FROZEN)
        ),
        iterations=iteration,
        freeze_at=freeze_at,
    )


def edge_weights_from_freezes(
    graph: Union[Graph, CSRGraph],
    freeze_at: np.ndarray,
    initial_weight: float,
    epsilon: float,
    final_iteration: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reconstruct ``x`` from the per-vertex freeze iterations ``freeze_at``.

    ``x_e = initial_weight / (1-ε)^{t'}`` where ``t'`` is the first
    iteration at which an endpoint of ``e`` froze (both endpoints unfrozen
    means the edge grew until the process ended — only possible when the
    process was truncated externally).  Returns ``(edges, x)``: every
    canonical edge row of ``graph`` (``csr.edge_array()``) and its weight.
    """
    growth = 1.0 / (1.0 - epsilon)
    csr = as_csr(graph)
    first = np.where(freeze_at == NEVER_FROZEN, final_iteration, freeze_at)
    edges = csr.edge_array()
    t_freeze = np.minimum(first[edges[:, 0]], first[edges[:, 1]])
    # One scalar power per iteration, so every weight is exactly
    # ``initial_weight * growth ** t'`` in Python floats.
    top = int(t_freeze.max(initial=0))
    scale = np.array([initial_weight * (growth**t) for t in range(top + 1)])
    return edges, scale[t_freeze]
