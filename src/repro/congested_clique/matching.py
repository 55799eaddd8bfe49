"""Matching and vertex cover in the CONGESTED-CLIQUE model.

The paper states Theorem 1.2 for MPC, and presents the proximity of MPC
and CONGESTED-CLIQUE as a conceptual contribution (Section 1.1).  This
module realizes that proximity for the matching algorithm, mirroring what
Section 3.2 does for MIS: the phases of MPC-Simulation map to
CONGESTED-CLIQUE rounds with

* one setup broadcast (shared thresholds / initial weights);
* per phase, the ``m = √d`` group leaders gather their group's induced
  active subgraph via Lenzen's routing scheme — the measured per-group
  volume is Lemma 4.7's ``O(n)``, i.e. a constant number of volume-``n``
  invocations, charged at 2 rounds each;
* per phase, one round of leader replies plus one freeze-notification
  broadcast;
* the direct Central-Rand tail at one round per iteration (every vertex
  can see its neighbors' freeze state in one round).

The *decisions* are byte-identical to :func:`repro.core.matching_mpc.
mpc_fractional_matching` under the same seed — only the round accounting
differs, and it is derived from measured volumes, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.congested_clique.model import CongestedClique
from repro.congested_clique.routing import LENZEN_ROUND_COST
from repro.core.config import MatchingConfig
from repro.core.fractional import FractionalMatching
from repro.core.matching_mpc import mpc_fractional_matching
from repro.graph.graph import Graph
from repro.utils.rng import SeedLike


@dataclass
class CCMatchingResult:
    """Fractional matching + cover with CONGESTED-CLIQUE round accounting."""

    matching: FractionalMatching
    rounds: int
    phases: int
    direct_iterations: int
    heavy_removed: np.ndarray

    @property
    def vertex_cover(self) -> np.ndarray:
        """The reported vertex cover, as ascending int64 ids."""
        return self.matching.vertex_cover

    @property
    def weight(self) -> float:
        """Total fractional weight."""
        return self.matching.weight()


def congested_clique_fractional_matching(
    graph: Graph,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
) -> CCMatchingResult:
    """Run the Lemma 4.2 algorithm with CONGESTED-CLIQUE accounting."""
    config = config or MatchingConfig()
    n = graph.num_vertices
    mpc = mpc_fractional_matching(graph, config=config, seed=seed)
    if n == 0:
        return CCMatchingResult(
            matching=mpc.matching,
            rounds=0,
            phases=0,
            direct_iterations=0,
            heavy_removed=mpc.heavy_removed,
        )

    clique = CongestedClique(n)
    clique.broadcast_round(context="matching: setup broadcast")
    for phase_edges in mpc.machine_edges_per_phase:
        # Leaders gather their group subgraphs: Lemma 4.7 bounds each
        # group's volume by O(n); ceil(volume/n) Lenzen invocations cover it.
        invocations = max(1, math.ceil(phase_edges / max(1, n)))
        clique.charge_rounds(
            LENZEN_ROUND_COST * invocations,
            "matching: phase gather via Lenzen routing",
        )
        clique.charge_rounds(1, "matching: leader replies")
        clique.broadcast_round(context="matching: freeze notifications")
    clique.charge_rounds(
        mpc.direct_iterations, "matching: direct Central-Rand tail"
    )
    return CCMatchingResult(
        matching=mpc.matching,
        rounds=clique.rounds,
        phases=mpc.phases,
        direct_iterations=mpc.direct_iterations,
        heavy_removed=mpc.heavy_removed,
    )
