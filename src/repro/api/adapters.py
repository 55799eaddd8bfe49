"""Registered adapters: the library's entry points as façade backends.

Each adapter is a thin shim — the algorithm modules keep their bespoke
signatures and result dataclasses (all existing callers and tests stay
valid), and the registry entry translates to the façade convention; the
set-based backends' solutions become arrays here (``edge_rows``,
``vertex_ids``).
Unweighted adapters receive the façade's :class:`~repro.graph.csr.CSRGraph`;
weighted ones receive the :class:`~repro.graph.weighted.WeightedGraph`.
Backend-specific measurements (prefix phases, Lenzen volumes, supersteps)
are preserved in ``extras`` so experiment tables lose nothing by going
through :func:`repro.api.solve`.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.api.registry import SolverOutput, registry
from repro.api.report import EDGE_SET, FRACTIONAL, VERTEX_SET
from repro.baselines.blossom import maximum_matching as blossom_maximum_matching
from repro.baselines.greedy import greedy_maximal_matching
from repro.congested_clique.matching import congested_clique_fractional_matching
from repro.congested_clique.mis import congested_clique_mis
from repro.core.augmenting import improve_matching, one_plus_eps_matching
from repro.core.central import central_fractional_matching
from repro.core.config import MatchingConfig, MISConfig
from repro.core.greedy_mis import randomized_greedy_mis
from repro.core.integral import mpc_maximum_matching
from repro.core.matching_mpc import mpc_fractional_matching
from repro.core.mis_mpc import mis_mpc
from repro.core.vertex_cover import cover_from_maximal_matching, mpc_vertex_cover
from repro.core.weighted_matching import mpc_weighted_matching
from repro.graph.csr import canonical_graph, edge_rows, vertex_ids
from repro.graph.weighted import WeightedGraph
from repro.mpc.programs import luby_vertex_program, matching_vertex_program
from repro.utils.rng import SeedLike

# ``rounds_constant`` values below are the empirical hidden constants of
# each implementation's O(.) round bound, calibrated with ~3-4x headroom
# over measured counts on the default verification matrix (n up to 50k);
# repro.verify.budgets multiplies them into the paper-bound budgets.  See
# VERIFICATION.md ("Calibration") before tightening or loosening one.


# ---------------------------------------------------------------------------
# mis
# ---------------------------------------------------------------------------


@registry.register(
    "mis",
    "mpc",
    solution_kind=VERTEX_SET,
    description="Theorem 1.1: O(log log Δ) MPC rounds via rank-prefix greedy",
    config_factory=MISConfig,
    priority=10,
    rounds_bound="loglog",
    rounds_constant=2.0,
    mpc_substrate=True,
)
def _mis_mpc(
    graph: Any,
    *,
    config: Optional[MISConfig] = None,
    seed: SeedLike = None,
    executor=None,
    governor=None,
) -> SolverOutput:
    result = mis_mpc(
        graph,
        seed=seed,
        config=config,
        executor=executor,
        governor=governor,
    )
    return SolverOutput(
        solution=result.mis,
        rounds=result.rounds,
        max_machine_words=result.peak_words,
        total_comm_words=result.total_comm_words,
        extras={
            "prefix_phases": result.prefix_phases,
            "max_shipped_edges": result.max_shipped_edges,
            "shipped_edges_per_phase": list(result.shipped_edges_per_phase),
            "luby_rounds_simulated": result.luby_rounds_simulated,
        },
    )


@registry.register(
    "mis",
    "congested_clique",
    solution_kind=VERTEX_SET,
    description="Section 3.2: Theorem 1.1 on the CONGESTED-CLIQUE network",
    config_factory=MISConfig,
    rounds_bound="loglog",
    rounds_constant=2.0,
)
def _mis_congested_clique(
    graph: Any,
    *,
    config: Optional[MISConfig] = None,
    seed: SeedLike = None,
) -> SolverOutput:
    result = congested_clique_mis(graph, seed=seed, config=config)
    return SolverOutput(
        solution=result.mis,
        rounds=result.rounds,
        max_machine_words=result.max_routed_messages,
        total_comm_words=sum(result.routed_per_phase),
        extras={
            "prefix_phases": result.prefix_phases,
            "max_routed_messages": result.max_routed_messages,
            "routed_per_phase": list(result.routed_per_phase),
        },
    )


@registry.register(
    "mis",
    "pregel",
    solution_kind=VERTEX_SET,
    description="Luby's MIS as a vertex program on the Pregel engine",
    rounds_bound="log",
    rounds_constant=2.0,
)
def _mis_pregel(
    graph: Any,
    *,
    config: Any = None,
    seed: SeedLike = None,
) -> SolverOutput:
    result = luby_vertex_program(graph, seed=seed)
    return SolverOutput(
        solution=vertex_ids(result.mis),
        rounds=result.rounds,
        max_machine_words=result.max_machine_message_words,
        total_comm_words=result.total_message_words,
        extras={"supersteps": result.supersteps},
    )


@registry.register(
    "mis",
    "greedy",
    solution_kind=VERTEX_SET,
    description="Sequential randomized greedy MIS (the reference process)",
)
def _mis_greedy(
    graph: Any,
    *,
    config: Any = None,
    seed: SeedLike = None,
) -> SolverOutput:
    return SolverOutput(solution=randomized_greedy_mis(graph, seed=seed))


# ---------------------------------------------------------------------------
# fractional_matching
# ---------------------------------------------------------------------------


@registry.register(
    "fractional_matching",
    "mpc",
    solution_kind=FRACTIONAL,
    description="Lemma 4.2: MPC-Simulation in O(log log n) rounds",
    config_factory=MatchingConfig,
    priority=10,
    rounds_bound="loglog",
    rounds_constant=4.0,
    mpc_substrate=True,
)
def _fractional_mpc(
    graph: Any,
    *,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    executor=None,
    governor=None,
) -> SolverOutput:
    result = mpc_fractional_matching(
        graph,
        config=config,
        seed=seed,
        executor=executor,
        governor=governor,
    )
    return SolverOutput(
        solution=result.matching,
        rounds=result.rounds,
        max_machine_words=result.peak_words,
        total_comm_words=result.total_comm_words,
        extras={
            "phases": result.phases,
            "iterations": result.iterations,
            "direct_iterations": result.direct_iterations,
            "max_machine_edges": result.max_machine_edges,
            "cover_size": len(result.vertex_cover),
            # Line (i) removals: each discards at most one unit of
            # fractional weight, which the verification lower band
            # discounts (see repro.verify.checkers.check_fractional_bands).
            "heavy_removed": len(result.heavy_removed),
        },
    )


@registry.register(
    "fractional_matching",
    "congested_clique",
    solution_kind=FRACTIONAL,
    description="Lemma 4.2 with CONGESTED-CLIQUE round accounting",
    config_factory=MatchingConfig,
    rounds_bound="loglog",
    rounds_constant=4.0,
)
def _fractional_congested_clique(
    graph: Any,
    *,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
) -> SolverOutput:
    result = congested_clique_fractional_matching(graph, config=config, seed=seed)
    return SolverOutput(
        solution=result.matching,
        rounds=result.rounds,
        extras={
            "phases": result.phases,
            "direct_iterations": result.direct_iterations,
            "cover_size": len(result.vertex_cover),
            "heavy_removed": len(result.heavy_removed),
        },
    )


@registry.register(
    "fractional_matching",
    "central",
    solution_kind=FRACTIONAL,
    description="Lemma 4.1: the centralized Central-Rand reference process",
    config_factory=MatchingConfig,
)
def _fractional_central(
    graph: Any,
    *,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
) -> SolverOutput:
    config = config or MatchingConfig()
    result = central_fractional_matching(
        graph,
        epsilon=config.epsilon,
        randomized_thresholds=True,
        seed=seed,
    )
    return SolverOutput(
        solution=result.matching,
        extras={
            "iterations": result.iterations,
            "cover_size": len(result.vertex_cover),
        },
    )


# ---------------------------------------------------------------------------
# matching (integral)
# ---------------------------------------------------------------------------


@registry.register(
    "matching",
    "mpc",
    solution_kind=EDGE_SET,
    description="Theorem 1.2: (2+ε)-approximate matching in O(log log n) rounds",
    config_factory=MatchingConfig,
    priority=10,
    rounds_bound="loglog",
    rounds_constant=40.0,
    mpc_substrate=True,
)
def _matching_mpc(
    graph: Any,
    *,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    executor=None,
    governor=None,
) -> SolverOutput:
    result = mpc_maximum_matching(
        graph,
        config=config,
        seed=seed,
        executor=executor,
        governor=governor,
    )
    return SolverOutput(
        solution=result.matching,
        rounds=result.rounds,
        max_machine_words=result.peak_words,
        total_comm_words=result.total_comm_words,
        extras={
            "passes": result.passes,
            "per_pass_sizes": list(result.per_pass_sizes),
            "cleanup_edges": result.cleanup_edges,
        },
    )


@registry.register(
    "matching",
    "pregel",
    solution_kind=EDGE_SET,
    description="Maximal matching by a propose/accept vertex program ([II86])",
    rounds_bound="log",
    rounds_constant=2.0,
)
def _matching_pregel(
    graph: Any,
    *,
    config: Any = None,
    seed: SeedLike = None,
) -> SolverOutput:
    result = matching_vertex_program(graph, seed=seed)
    return SolverOutput(
        solution=edge_rows(result.matching),
        rounds=result.rounds,
        max_machine_words=result.max_machine_message_words,
        total_comm_words=result.total_message_words,
        extras={"supersteps": result.supersteps},
    )


@registry.register(
    "matching",
    "greedy",
    solution_kind=EDGE_SET,
    description="Sequential greedy maximal matching (2-approximate)",
)
def _matching_greedy(
    graph: Any,
    *,
    config: Any = None,
    seed: SeedLike = None,
) -> SolverOutput:
    return SolverOutput(solution=greedy_maximal_matching(graph, seed=seed))


@registry.register(
    "matching",
    "central",
    solution_kind=EDGE_SET,
    description="Exact maximum matching via the Blossom algorithm",
)
def _matching_central(
    graph: Any,
    *,
    config: Any = None,
    seed: SeedLike = None,
) -> SolverOutput:
    return SolverOutput(
        solution=edge_rows(blossom_maximum_matching(canonical_graph(graph))),
        extras={"exact": True},
    )


# ---------------------------------------------------------------------------
# vertex_cover
# ---------------------------------------------------------------------------


@registry.register(
    "vertex_cover",
    "mpc",
    solution_kind=VERTEX_SET,
    description="Theorem 1.2: (2+ε)-approximate cover in O(log log n) rounds",
    config_factory=MatchingConfig,
    priority=10,
    rounds_bound="loglog",
    rounds_constant=4.0,
    mpc_substrate=True,
)
def _cover_mpc(
    graph: Any,
    *,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    executor=None,
    governor=None,
) -> SolverOutput:
    result = mpc_vertex_cover(
        graph,
        config=config,
        seed=seed,
        executor=executor,
        governor=governor,
    )
    return SolverOutput(
        solution=result.cover,
        rounds=result.rounds,
        max_machine_words=result.peak_words,
        total_comm_words=result.total_comm_words,
        extras={"fractional_weight": result.fractional_weight},
    )


@registry.register(
    "vertex_cover",
    "central",
    solution_kind=VERTEX_SET,
    description="Lemma 4.1: the frozen vertices of centralized Central-Rand",
    config_factory=MatchingConfig,
)
def _cover_central(
    graph: Any,
    *,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
) -> SolverOutput:
    config = config or MatchingConfig()
    result = central_fractional_matching(
        graph,
        epsilon=config.epsilon,
        randomized_thresholds=True,
        seed=seed,
    )
    return SolverOutput(
        solution=result.vertex_cover,
        extras={
            "iterations": result.iterations,
            "fractional_weight": result.weight,
        },
    )


@registry.register(
    "vertex_cover",
    "greedy",
    solution_kind=VERTEX_SET,
    description="Folklore 2-approximation: endpoints of a maximal matching",
)
def _cover_greedy(
    graph: Any,
    *,
    config: Any = None,
    seed: SeedLike = None,
) -> SolverOutput:
    matching = greedy_maximal_matching(graph, seed=seed)
    return SolverOutput(solution=cover_from_maximal_matching(matching))


# ---------------------------------------------------------------------------
# one_plus_eps_matching
# ---------------------------------------------------------------------------


@registry.register(
    "one_plus_eps_matching",
    "mpc",
    solution_kind=EDGE_SET,
    description="Corollary 1.3: (1+ε) matching via short augmenting paths",
    config_factory=MatchingConfig,
    priority=10,
    rounds_bound="loglog",
    rounds_constant=40.0,
    mpc_substrate=True,
)
def _one_plus_eps_mpc(
    graph: Any,
    *,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    executor=None,
    governor=None,
) -> SolverOutput:
    config = config or MatchingConfig()
    result = one_plus_eps_matching(
        graph,
        epsilon=config.epsilon,
        config=config,
        seed=seed,
        executor=executor,
        governor=governor,
    )
    return SolverOutput(
        solution=result.matching,
        rounds=result.rounds,
        max_machine_words=result.peak_words,
        total_comm_words=result.total_comm_words,
        extras={
            "sweeps": result.sweeps,
            "augmentations": result.augmentations,
            "max_path_length": result.max_path_length,
        },
    )


@registry.register(
    "one_plus_eps_matching",
    "greedy",
    solution_kind=EDGE_SET,
    description="Greedy maximal matching improved by short augmenting paths",
    config_factory=MatchingConfig,
)
def _one_plus_eps_greedy(
    graph: Any,
    *,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
) -> SolverOutput:
    config = config or MatchingConfig()
    start = greedy_maximal_matching(graph, seed=seed)
    k = max(1, math.ceil(1.0 / config.epsilon))
    improved = improve_matching(
        canonical_graph(graph), start, max_path_length=2 * k - 1
    )
    return SolverOutput(
        solution=improved.matching,
        rounds=improved.rounds,
        extras={
            "sweeps": improved.sweeps,
            "augmentations": improved.augmentations,
            "max_path_length": 2 * k - 1,
        },
    )


@registry.register(
    "one_plus_eps_matching",
    "central",
    solution_kind=EDGE_SET,
    description="Exact maximum matching via the Blossom algorithm",
)
def _one_plus_eps_central(
    graph: Any,
    *,
    config: Any = None,
    seed: SeedLike = None,
) -> SolverOutput:
    return SolverOutput(
        solution=edge_rows(blossom_maximum_matching(canonical_graph(graph))),
        extras={"exact": True},
    )


# ---------------------------------------------------------------------------
# weighted_matching
# ---------------------------------------------------------------------------


@registry.register(
    "weighted_matching",
    "mpc",
    solution_kind=EDGE_SET,
    description="Corollary 1.4: weight classes over O(log log n) maximal matching",
    config_factory=MatchingConfig,
    weighted=True,
    priority=10,
    rounds_bound="loglog",
    rounds_constant=2.0,
    mpc_substrate=True,
)
def _weighted_mpc(
    graph: WeightedGraph,
    *,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    executor=None,
    governor=None,
) -> SolverOutput:
    config = config or MatchingConfig()
    result = mpc_weighted_matching(
        graph,
        epsilon=config.epsilon,
        seed=seed,
        memory_factor=config.memory_factor,
        executor=executor,
        governor=governor,
    )
    return SolverOutput(
        solution=result.matching,
        rounds=result.rounds,
        extras={
            "classes": result.classes,
            "per_class_sizes": list(result.per_class_sizes),
        },
    )


@registry.register(
    "weighted_matching",
    "greedy",
    solution_kind=EDGE_SET,
    description="Heaviest-edge-first greedy matching (2-approximate)",
    weighted=True,
)
def _weighted_greedy(
    graph: WeightedGraph,
    *,
    config: Any = None,
    seed: SeedLike = None,
) -> SolverOutput:
    edges = sorted(graph.edges(), key=lambda uvw: (-uvw[2], uvw[0], uvw[1]))
    matched: set = set()
    matching = set()
    for u, v, _ in edges:
        if u in matched or v in matched:
            continue
        matching.add((u, v))
        matched.add(u)
        matched.add(v)
    return SolverOutput(solution=edge_rows(matching))
