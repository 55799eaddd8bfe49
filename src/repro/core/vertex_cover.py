"""Minimum vertex cover in O(log log n) MPC rounds — the cover half of
Theorem 1.2.

MPC-Simulation's frozen vertices (plus the heavy-removed ones) already form
a ``(2 + 50ε)``-approximate vertex cover (Lemma 4.2); this module wraps
that output in a dedicated API.  Coverage is checked where every solution
is checked — once, by :func:`repro.verify.checkers.check_solution` behind
the façade's ``metrics["valid"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import MatchingConfig
from repro.core.matching_mpc import mpc_fractional_matching
from repro.graph.csr import sorted_unique
from repro.graph.graph import Graph
from repro.utils.rng import SeedLike


@dataclass
class VertexCoverResult:
    """A vertex cover (ascending int64 ids) with its cost accounting."""

    cover: np.ndarray
    rounds: int
    fractional_weight: float
    total_comm_words: int = 0
    peak_words: int = 0

    @property
    def size(self) -> int:
        """Number of cover vertices."""
        return len(self.cover)


def mpc_vertex_cover(
    graph: Graph,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    executor=None,
    governor=None,
) -> VertexCoverResult:
    """Compute a ``(2+O(ε))``-approximate vertex cover of ``graph``."""
    config = config or MatchingConfig()
    result = mpc_fractional_matching(
        graph,
        config=config,
        seed=seed,
        executor=executor,
        governor=governor,
    )
    return VertexCoverResult(
        cover=result.vertex_cover,
        rounds=result.rounds,
        fractional_weight=result.weight,
        total_comm_words=result.total_comm_words,
        peak_words=result.peak_words,
    )


def cover_from_maximal_matching(matching: np.ndarray) -> np.ndarray:
    """The classic 2-approximate cover: the unique endpoints of a maximal
    matching's ``(k, 2)`` rows (the ``vertex_cover/greedy`` baseline)."""
    return sorted_unique(matching)
