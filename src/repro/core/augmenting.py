"""(1+ε)-approximate matching via short augmenting paths — Corollary 1.3.

The paper obtains Corollary 1.3 by applying McGregor's technique [McG05]
on top of Theorem 1.2.  Our substitute (DESIGN.md §5, substitution 2) uses
the same underlying combinatorics directly: by the Hopcroft–Karp lemma, a
matching with no augmenting path of length at most ``2k - 1`` has size at
least ``k/(k+1)`` of optimal.  Taking ``k = ceil(1/ε)`` and repeatedly
eliminating maximal sets of vertex-disjoint short augmenting paths yields
the ``(1+ε)`` factor, with round cost tracked per elimination sweep —
matching the corollary's ``O(log log n) · (1/ε)^{O(1/ε)}`` shape.

The augmenting-path search is exact on bipartite graphs; on general graphs
blossoms can hide some short augmenting paths, so the guarantee there is
empirical (the E8 experiment measures it against the Blossom baseline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Container, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.core.config import MatchingConfig
from repro.core.integral import mpc_maximum_matching
from repro.graph.csr import CSRGraph, canonical_graph, edge_rows
from repro.graph.graph import Edge, Graph
from repro.utils.rng import SeedLike
from repro.utils.validation import require_epsilon


@dataclass
class AugmentingResult:
    """Outcome of the augmenting-path improvement loop; ``matching`` is an
    int64 ``(k, 2)`` array of canonical ``u < v`` rows."""

    matching: np.ndarray
    rounds: int
    sweeps: int
    augmentations: int
    max_path_length: int
    total_comm_words: int = 0
    peak_words: int = 0


def one_plus_eps_matching(
    graph: Union[Graph, CSRGraph],
    epsilon: float = 0.2,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    executor=None,
    governor=None,
) -> AugmentingResult:
    """Compute a ``(1+ε)``-approximate matching of ``graph``.

    Starts from the Theorem 1.2 matching and eliminates augmenting paths of
    length up to ``2*ceil(1/ε) - 1``.  ``executor`` parallelizes the base
    Theorem 1.2 passes and ``governor`` governs their memory envelope; the
    path-elimination sweeps stay driver-side.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    config = config or MatchingConfig()
    base = mpc_maximum_matching(
        graph,
        config=config,
        seed=seed,
        executor=executor,
        governor=governor,
    )
    k = max(1, math.ceil(1.0 / epsilon))
    max_length = 2 * k - 1
    # The path search walks set-based adjacency in iteration order, so it
    # reads the canonical form of every representation.
    improved = improve_matching(canonical_graph(graph), base.matching, max_length)
    return AugmentingResult(
        matching=improved.matching,
        rounds=base.rounds + improved.rounds,
        sweeps=improved.sweeps,
        augmentations=improved.augmentations,
        max_path_length=max_length,
        total_comm_words=base.total_comm_words,
        peak_words=base.peak_words,
    )


@dataclass
class ImprovementOutcome:
    """Result of :func:`improve_matching`; ``matching`` is an int64
    ``(k, 2)`` array of canonical ``u < v`` rows."""

    matching: np.ndarray
    rounds: int
    sweeps: int
    augmentations: int


def improve_matching(
    graph: Graph,
    matching: Iterable[Edge],
    max_path_length: int,
) -> ImprovementOutcome:
    """Eliminate augmenting paths of length ``<= max_path_length``.

    Each sweep finds a maximal vertex-disjoint set of short augmenting
    paths (greedy DFS from every free vertex) and flips them all; sweeps
    repeat until one finds nothing.  Each sweep is chargeable as
    ``O(max_path_length)`` MPC rounds (a path of length ℓ is discoverable
    with ℓ rounds of neighborhood exchange), which is what ``rounds``
    accounts.
    """
    mate = _mates(matching)
    sweeps = 0
    total_augmentations = 0
    rounds = 0
    while True:
        paths = find_disjoint_augmenting_paths(graph, mate.items(), max_path_length)
        rounds += max(1, max_path_length)
        sweeps += 1
        if not paths:
            break
        for path in paths:
            # Flip: the path's even-position edges become the matched ones.
            for u, v in zip(path[0::2], path[1::2]):
                mate[u] = v
                mate[v] = u
        total_augmentations += len(paths)
    return ImprovementOutcome(
        matching=edge_rows([(u, v) for u, v in mate.items() if u < v]),
        rounds=rounds,
        sweeps=sweeps,
        augmentations=total_augmentations,
    )


def find_disjoint_augmenting_paths(
    graph: Graph, matching: Iterable[Edge], max_path_length: int
) -> List[List[int]]:
    """A maximal set of vertex-disjoint augmenting paths of bounded length.

    Greedy: scan free vertices in order, DFS for an alternating path of
    length ``<= max_path_length`` ending at another free vertex, lock the
    path's vertices, continue.  The DFS tracks per-attempt visitation, so a
    single attempt is ``O(m)`` worst case.
    """
    mate = _mates(matching)
    used = set()  # vertices on an already chosen path
    paths: List[List[int]] = []
    for root in graph.vertices():
        if root in mate or root in used:
            continue
        path = _augmenting_dfs(graph, mate, root, max_path_length, used)
        if path is not None:
            paths.append(path)
            used.update(path)
    return paths


def _augmenting_dfs(
    graph: Graph,
    mate: Dict[int, int],
    root: int,
    max_path_length: int,
    locked: Container[int],
) -> Optional[List[int]]:
    """DFS for one augmenting path from free vertex ``root``.

    Explores alternating paths (unmatched, matched, unmatched, ...) of at
    most ``max_path_length`` edges.  Returns the vertex sequence or None.
    """
    visited = {root}

    def extend(v: int, length_left: int) -> Optional[List[int]]:
        for u in graph.neighbors_view(v):
            if u in visited or u in locked:
                continue
            if u not in mate:
                return [v, u]  # unmatched edge to a free vertex: augmenting
            if length_left < 2:
                continue
            partner = mate[u]
            if partner in visited or partner in locked:
                continue
            visited.add(u)
            visited.add(partner)
            tail = extend(partner, length_left - 2)
            if tail is not None:
                return [v, u] + tail
            # Leave u/partner visited: failed sub-searches stay failed for
            # this attempt (standard pruning; exact for bipartite graphs).
        return None

    result = extend(root, max_path_length)
    return result


def _mates(matching: Iterable[Edge]) -> Dict[int, int]:
    """The mate map of a matching's edges, in both directions."""
    rows = edge_rows(matching).tolist()
    return dict(rows + [[v, u] for u, v in rows])
