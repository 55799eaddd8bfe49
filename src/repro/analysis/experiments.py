"""Experiment harness: one ``run_eXX`` function per DESIGN.md experiment.

Each function returns a list of row dicts (one per parameter point) that
the benchmarks print via :func:`repro.analysis.tables.format_table` and
that EXPERIMENTS.md records.  Sizes default to values that finish in
seconds; benchmarks may pass larger sweeps.

Paper-algorithm runs go through :func:`repro.api.solve` — one dispatch
path for every task×backend pair, with backend measurements preserved in
``RunReport.extras``.  Experiments probing *internals* the façade does not
expose (coupled threshold oracles, rounding details, residual-degree
curves) still call the algorithm modules directly.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.concentration import coupled_run
from repro.analysis.metrics import approximation_ratio, loglog_slope
from repro.api import solve
from repro.baselines.blossom import maximum_matching
from repro.baselines.exact import brute_force_maximum_weight_matching
from repro.baselines.filtering import filtering_maximal_matching
from repro.baselines.greedy import greedy_maximal_matching
from repro.baselines.israeli_itai import israeli_itai_matching
from repro.baselines.luby import luby_mis
from repro.core.central import central_fractional_matching
from repro.core.config import MatchingConfig
from repro.core.matching_mpc import mpc_fractional_matching
from repro.core.rounding import round_fractional_matching
from repro.graph.generators import (
    gnp_random_graph,
    planted_matching_graph,
    random_weighted_graph,
)
from repro.graph.graph import Graph
from repro.mpc.spec import ClusterSpec

Row = Dict[str, Any]

_DEFAULT_SIZES = (256, 512, 1024, 2048, 4096)


def _avg_degree_p(n: int, avg_degree: float) -> float:
    """The G(n,p) edge probability giving expected average degree."""
    if n <= 1:
        return 0.0
    return min(1.0, avg_degree / (n - 1))


def run_e01_mis_rounds(
    sizes: Sequence[int] = _DEFAULT_SIZES,
    avg_degree: float = 192.0,
    seed: int = 1,
) -> List[Row]:
    """E1: MIS rounds vs n — paper's O(log log Δ) against Luby's O(log n)."""
    rows: List[Row] = []
    for n in sizes:
        graph = gnp_random_graph(n, _avg_degree_p(n, avg_degree), seed=seed)
        paper = solve("mis", graph, backend="mpc", seed=seed)
        baseline = luby_mis(graph, seed=seed)
        rows.append(
            {
                "n": n,
                "max_degree": graph.max_degree(),
                "loglog_n": round(math.log2(max(2.0, math.log2(n))), 2),
                "paper_rounds": paper.rounds,
                "luby_rounds": baseline.rounds,
                "prefix_phases": paper.extras["prefix_phases"],
            }
        )
    return rows


def run_e02_mis_memory(
    sizes: Sequence[int] = _DEFAULT_SIZES,
    avg_degree: float = 192.0,
    seed: int = 2,
) -> List[Row]:
    """E2: max edges shipped to one machine, normalized by n (Lemma 3.1)."""
    rows: List[Row] = []
    for n in sizes:
        graph = gnp_random_graph(n, _avg_degree_p(n, avg_degree), seed=seed)
        result = solve("mis", graph, backend="mpc", seed=seed)
        shipped = result.extras["max_shipped_edges"]
        rows.append(
            {
                "n": n,
                "edges": graph.num_edges,
                "max_shipped_edges": shipped,
                "shipped_over_n": shipped / n,
                "peak_words_over_n": result.max_machine_words / n,
            }
        )
    return rows


def run_e03_central(
    sizes: Sequence[int] = (128, 256, 512),
    epsilons: Sequence[float] = (0.05, 0.1),
    avg_degree: float = 8.0,
    seed: int = 3,
) -> List[Row]:
    """E3: Central's iteration count and approximation factors (Lemma 4.1)."""
    rows: List[Row] = []
    for n in sizes:
        graph = gnp_random_graph(n, _avg_degree_p(n, avg_degree), seed=seed)
        optimum = len(maximum_matching(graph))
        for eps in epsilons:
            result = central_fractional_matching(graph, epsilon=eps, seed=seed)
            ratio = approximation_ratio(result.weight, float(optimum))
            rows.append(
                {
                    "n": n,
                    "epsilon": eps,
                    "iterations": result.iterations,
                    "log_n_over_eps": round(math.log(n) / eps, 1),
                    "fractional_weight": round(result.weight, 2),
                    "max_matching": optimum,
                    "matching_ratio": round(ratio, 3),
                    "cover_size": len(result.vertex_cover),
                    "cover_over_matching": round(
                        len(result.vertex_cover) / max(1, optimum), 3
                    ),
                }
            )
    return rows


def run_e04_mpc_matching(
    sizes: Sequence[int] = (256, 512, 1024, 2048),
    epsilon: float = 0.1,
    avg_degree: float = 16.0,
    seed: int = 4,
) -> List[Row]:
    """E4: MPC-Simulation phases/rounds and fractional quality (Lemma 4.2)."""
    rows: List[Row] = []
    for n in sizes:
        graph = gnp_random_graph(n, _avg_degree_p(n, avg_degree), seed=seed)
        result = solve(
            "fractional_matching",
            graph,
            backend="mpc",
            config={"epsilon": epsilon},
            seed=seed,
        )
        optimum = len(maximum_matching(graph))
        weight = result.metrics["weight"]
        rows.append(
            {
                "n": n,
                "phases": result.extras["phases"],
                "rounds": result.rounds,
                "iterations": result.extras["iterations"],
                "fractional_weight": round(weight, 2),
                "max_matching": optimum,
                "weight_ratio": round(
                    approximation_ratio(weight, float(optimum)), 3
                ),
                "cover_over_matching": round(
                    result.extras["cover_size"] / max(1, optimum), 3
                ),
            }
        )
    return rows


def run_e05_matching_memory(
    sizes: Sequence[int] = (256, 512, 1024, 2048),
    epsilon: float = 0.1,
    avg_degree: float = 16.0,
    seed: int = 5,
) -> List[Row]:
    """E5: per-machine induced subgraph size during phases (Lemma 4.7)."""
    rows: List[Row] = []
    for n in sizes:
        graph = gnp_random_graph(n, _avg_degree_p(n, avg_degree), seed=seed)
        result = solve(
            "fractional_matching",
            graph,
            backend="mpc",
            config={"epsilon": epsilon},
            seed=seed,
        )
        machine_edges = result.extras["max_machine_edges"]
        rows.append(
            {
                "n": n,
                "edges": graph.num_edges,
                "max_machine_edges": machine_edges,
                "machine_edges_over_n": machine_edges / n,
            }
        )
    return rows


def run_e06_rounding(
    sizes: Sequence[int] = (512, 1024, 2048),
    epsilon: float = 0.1,
    avg_degree: float = 16.0,
    seed: int = 6,
) -> List[Row]:
    """E6: rounding yield vs the |C~|/50 guarantee (Lemma 5.1)."""
    rows: List[Row] = []
    config = MatchingConfig(epsilon=epsilon)
    for n in sizes:
        graph = gnp_random_graph(n, _avg_degree_p(n, avg_degree), seed=seed)
        fractional = mpc_fractional_matching(graph, config=config, seed=seed)
        candidates = fractional.rounding_candidates(epsilon)
        outcome = round_fractional_matching(
            fractional.matching, candidates, seed=seed
        )
        yield_constant = (
            len(outcome.matching) / len(candidates) if len(candidates) else 0.0
        )
        rows.append(
            {
                "n": n,
                "candidates": len(candidates),
                "rounded_matching": len(outcome.matching),
                "proposals": outcome.proposals,
                "collisions": outcome.collisions,
                "yield_per_candidate": round(yield_constant, 3),
                "paper_guarantee": 1.0 / 50.0,
            }
        )
    return rows


def run_e07_integral(
    sizes: Sequence[int] = (256, 512, 1024),
    epsilons: Sequence[float] = (0.1,),
    avg_degree: float = 12.0,
    seed: int = 7,
) -> List[Row]:
    """E7: integral matching + cover quality and rounds (Theorem 1.2)."""
    rows: List[Row] = []
    for n in sizes:
        graph = gnp_random_graph(n, _avg_degree_p(n, avg_degree), seed=seed)
        optimum = len(maximum_matching(graph))
        for eps in epsilons:
            config = MatchingConfig(epsilon=eps)
            result = solve("matching", graph, config=config, seed=seed)
            cover = solve("vertex_cover", graph, config=config, seed=seed)
            rows.append(
                {
                    "n": n,
                    "epsilon": eps,
                    "matching": result.size,
                    "max_matching": optimum,
                    "ratio": round(
                        approximation_ratio(result.size, float(optimum)), 3
                    ),
                    "guarantee": round(2.0 + eps, 2),
                    "rounds": result.rounds,
                    "passes": result.extras["passes"],
                    "cover_size": cover.size,
                    "cover_over_matching": round(cover.size / max(1, optimum), 3),
                }
            )
    return rows


def run_e08_one_plus_eps(
    n: int = 512,
    epsilons: Sequence[float] = (0.5, 0.33, 0.2),
    avg_degree: float = 8.0,
    seed: int = 8,
) -> List[Row]:
    """E8: (1+ε) matching quality vs ε (Corollary 1.3)."""
    graph = gnp_random_graph(n, _avg_degree_p(n, avg_degree), seed=seed)
    optimum = len(maximum_matching(graph))
    rows: List[Row] = []
    for eps in epsilons:
        result = solve(
            "one_plus_eps_matching", graph, config={"epsilon": eps}, seed=seed
        )
        rows.append(
            {
                "n": n,
                "epsilon": eps,
                "matching": result.size,
                "max_matching": optimum,
                "ratio": round(
                    approximation_ratio(result.size, float(optimum)), 4
                ),
                "guarantee": round(1.0 + eps, 2),
                "max_path_length": result.extras["max_path_length"],
                "rounds": result.rounds,
                "sweeps": result.extras["sweeps"],
            }
        )
    return rows


def run_e09_weighted(
    sizes: Sequence[int] = (64, 128, 256),
    epsilon: float = 0.1,
    avg_degree: float = 8.0,
    seed: int = 9,
) -> List[Row]:
    """E9: weighted matching quality (Corollary 1.4).

    Exact baselines via brute force are only feasible at tiny sizes, so the
    first row uses brute force and larger rows compare against the greedy
    weight upper bound ``2 * OPT >= greedy`` heuristic baseline.
    """
    rows: List[Row] = []
    for n in sizes:
        weighted = random_weighted_graph(
            n, _avg_degree_p(n, avg_degree), distribution="zipf", seed=seed
        )
        result = solve(
            "weighted_matching", weighted, config={"epsilon": epsilon}, seed=seed
        )
        weight = result.metrics["weight"]
        row: Row = {
            "n": n,
            "classes": result.extras["classes"],
            "matching_weight": round(weight, 3),
            "rounds": result.rounds,
        }
        if weighted.num_edges <= 60:
            _, opt_weight = brute_force_maximum_weight_matching(weighted)
            row["optimal_weight"] = round(opt_weight, 3)
            row["ratio"] = round(approximation_ratio(weight, opt_weight), 3)
        rows.append(row)
    return rows


def run_e10_baselines(
    n: int = 1024,
    avg_degree: float = 16.0,
    seed: int = 10,
) -> List[Row]:
    """E10: head-to-head rounds/quality table across algorithms."""
    graph = gnp_random_graph(n, _avg_degree_p(n, avg_degree), seed=seed)
    optimum = len(maximum_matching(graph))
    config = MatchingConfig()
    words = ClusterSpec.from_graph(graph, config.memory_factor).words_per_machine

    paper_mis = solve("mis", graph, backend="mpc", seed=seed)
    luby = luby_mis(graph, seed=seed)
    paper_matching = solve("matching", graph, config=config, seed=seed)
    filtering = filtering_maximal_matching(graph, words_per_machine=words, seed=seed)
    israeli = israeli_itai_matching(graph, seed=seed)
    greedy = greedy_maximal_matching(graph, seed=seed)

    return [
        {
            "algorithm": "paper MIS (Thm 1.1)",
            "rounds": paper_mis.rounds,
            "output_size": paper_mis.size,
            "quality": "maximal independent set",
        },
        {
            "algorithm": "Luby MIS [Lub86]",
            "rounds": luby.rounds,
            "output_size": len(luby.mis),
            "quality": "maximal independent set",
        },
        {
            "algorithm": "paper matching (Thm 1.2)",
            "rounds": paper_matching.rounds,
            "output_size": paper_matching.size,
            "quality": f"ratio {approximation_ratio(paper_matching.size, float(optimum)):.3f}",
        },
        {
            "algorithm": "LMSV11 filtering",
            "rounds": filtering.rounds,
            "output_size": len(filtering.matching),
            "quality": f"ratio {approximation_ratio(len(filtering.matching), float(optimum)):.3f}",
        },
        {
            "algorithm": "Israeli-Itai [II86]",
            "rounds": israeli.rounds,
            "output_size": len(israeli.matching),
            "quality": f"ratio {approximation_ratio(len(israeli.matching), float(optimum)):.3f}",
        },
        {
            "algorithm": "greedy maximal (sequential)",
            "rounds": graph.num_edges,
            "output_size": len(greedy),
            "quality": f"ratio {approximation_ratio(len(greedy), float(optimum)):.3f}",
        },
    ]


def run_e11_concentration(
    sizes: Sequence[int] = (256, 512, 1024),
    epsilon: float = 0.1,
    avg_degree: float = 16.0,
    seed: int = 11,
) -> List[Row]:
    """E11: coupled-process divergence statistics (Lemmas 4.11-4.15)."""
    rows: List[Row] = []
    config = MatchingConfig(epsilon=epsilon)
    for n in sizes:
        graph = gnp_random_graph(n, _avg_degree_p(n, avg_degree), seed=seed)
        report = coupled_run(graph, config=config, seed=seed)
        rows.append(
            {
                "n": n,
                "bad_fraction": round(report.bad_fraction, 4),
                "mean_load_dev": round(report.mean_load_deviation, 4),
                "max_load_dev": round(report.max_load_deviation, 4),
                "cover_sym_diff": report.cover_symmetric_difference,
                "central_weight": round(report.central_weight, 2),
                "mpc_weight": round(report.mpc_weight, 2),
            }
        )
    return rows


def run_e12_congested_clique(
    sizes: Sequence[int] = (256, 512, 1024, 2048),
    avg_degree: float = 192.0,
    seed: int = 12,
) -> List[Row]:
    """E12: CONGESTED-CLIQUE MIS rounds and Lenzen routing volume."""
    rows: List[Row] = []
    for n in sizes:
        graph = gnp_random_graph(n, _avg_degree_p(n, avg_degree), seed=seed)
        result = solve("mis", graph, backend="congested_clique", seed=seed)
        routed = result.extras["max_routed_messages"]
        rows.append(
            {
                "n": n,
                "rounds": result.rounds,
                "prefix_phases": result.extras["prefix_phases"],
                "max_routed": routed,
                "routed_over_n": routed / n,
            }
        )
    return rows


def run_e13_residual_degree(
    n: int = 2048,
    avg_degree: float = 256.0,
    rank_fractions: Sequence[float] = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5),
    seed: int = 13,
) -> List[Row]:
    """E13: residual max degree after greedy up to rank r (Lemma 3.1).

    The lemma (inherited from [ACG+15]) states that after the randomized
    greedy process consumes ranks 1..r, the residual graph's maximum degree
    is O(n log n / r) w.h.p.  This experiment measures the decay curve and
    reports it against the explicit 20 n ln(n) / r bound from the proof.
    """
    from repro.core.greedy_mis import residual_after_prefix
    from repro.utils.rng import make_rng

    graph = gnp_random_graph(n, _avg_degree_p(n, avg_degree), seed=seed)
    ranks = list(range(n))
    make_rng(seed).shuffle(ranks)
    rows: List[Row] = []
    for fraction in rank_fractions:
        r = max(1, int(fraction * n))
        residual, mis = residual_after_prefix(graph, ranks, up_to_rank=r)
        bound = 20.0 * n * math.log(n) / r
        measured = residual.max_degree()
        rows.append(
            {
                "rank_fraction": fraction,
                "rank": r,
                "residual_max_degree": measured,
                "lemma_bound": round(bound, 1),
                "measured_over_bound": round(measured / bound, 4),
                "mis_so_far": len(mis),
            }
        )
    return rows
