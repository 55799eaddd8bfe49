"""Coupling measurements for Lemmas 4.11–4.15 (experiment E11).

The paper's key technical step couples MPC-Simulation to Central-Rand
through shared thresholds ``T_{v,t}`` and argues that *bad* vertices —
those whose freeze decision diverges between the two processes — stay rare
(probability ``≤ m^{-0.1}/ε`` per vertex), keeping estimate deviations
``|y_v − y~_v|`` below ``m^{-0.1}``.

We realize the coupling exactly: run both processes with the *same*
:class:`~repro.core.thresholds.ThresholdOracle`, then compare per-vertex
freeze iterations and final loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.central import run_freezing_process, start_weight
from repro.core.config import MatchingConfig
from repro.core.matching_mpc import MatchingMPCResult, mpc_fractional_matching
from repro.core.thresholds import ThresholdOracle
from repro.graph.csr import as_csr
from repro.graph.graph import Graph
from repro.utils.rng import SeedLike, make_rng


@dataclass
class CouplingReport:
    """Divergence statistics between the coupled processes.

    Attributes
    ----------
    bad_fraction:
        Fraction of vertices whose freeze iteration differs between
        Central-Rand and MPC-Simulation (the paper's *bad* vertices,
        Definition 4.9, measured at run end).
    mean_load_deviation / max_load_deviation:
        Statistics of ``|y_v − y^MPC_v|`` over vertices present in both.
    cover_symmetric_difference:
        Size of the symmetric difference of the two vertex covers.
    central_weight / mpc_weight:
        The two fractional matching weights (should agree to ``O(ε)``).
    """

    bad_fraction: float
    mean_load_deviation: float
    max_load_deviation: float
    cover_symmetric_difference: int
    central_weight: float
    mpc_weight: float


def coupled_run(
    graph: Graph,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    randomized_thresholds: bool = True,
) -> CouplingReport:
    """Run Central-Rand and MPC-Simulation with shared thresholds.

    ``randomized_thresholds=False`` replaces the random interval
    ``[1-4ε, 1-2ε]`` with the fixed threshold ``1-2ε`` in *both* processes —
    the ablation of the paper's "Random Thresholding to the Rescue" device
    (Section 4.2).  The paper predicts markedly more bad vertices without
    the randomness; experiment A1 measures exactly that.
    """
    config = config or MatchingConfig()
    rng = make_rng(seed)
    if randomized_thresholds:
        oracle = ThresholdOracle(
            config.threshold_low, config.threshold_high, seed=rng.getrandbits(64)
        )
    else:
        oracle = ThresholdOracle(
            config.threshold_high, config.threshold_high, seed=rng.getrandbits(64)
        )

    mpc = mpc_fractional_matching(
        graph, config=config, seed=rng.getrandbits(64), oracle=oracle
    )
    csr = as_csr(graph)
    central = run_freezing_process(
        graph=csr,
        epsilon=config.epsilon,
        oracle=oracle,
        initial_weight=start_weight(csr, config.epsilon),
        max_iterations=100_000,
    )

    # Bad vertices: non-isolated ones whose freeze iterations differ (both
    # arrays mark the vertices that never froze NEVER_FROZEN).
    relevant = csr.degrees() > 0
    differ = central.freeze_at[relevant] != mpc.freeze_at[relevant]
    bad = int(np.count_nonzero(differ))
    present = relevant.copy()
    present[mpc.heavy_removed] = False
    deviations = np.abs(
        central.matching.vertex_loads() - mpc.matching.vertex_loads()
    )[present].tolist()

    return CouplingReport(
        bad_fraction=bad / len(differ) if len(differ) else 0.0,
        mean_load_deviation=(
            sum(deviations) / len(deviations) if deviations else 0.0
        ),
        max_load_deviation=max(deviations, default=0.0),
        cover_symmetric_difference=len(
            np.setxor1d(central.vertex_cover, mpc.vertex_cover)
        ),
        central_weight=central.weight,
        mpc_weight=mpc.weight,
    )
