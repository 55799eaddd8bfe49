"""Empirical auditing of "with high probability" claims.

The paper proves its guarantees w.h.p.; the reproduction cannot prove
tail bounds, but it can *measure* failure rates: run a predicate over
many independent seeds and report how often it fails (DESIGN.md §5,
substitution 4).  Experiment E14 audits the load-bearing invariants this
way; the harness is generic so downstream users can audit their own
claims.

The per-trial predicates are built from :mod:`repro.verify.checkers` —
the same invariant checkers the facade's ``verify=`` hook and the
differential harness run — so "what E14 measures" and "what a
certificate asserts" cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from repro.core.config import MatchingConfig, MISConfig
from repro.core.integral import mpc_maximum_matching
from repro.core.matching_mpc import mpc_fractional_matching
from repro.core.mis_mpc import mis_mpc
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import Graph
from repro.verify.checkers import (
    check_fractional_matching,
    check_matching,
    check_matching_ratio,
    check_mis,
    check_vertex_cover,
)


@dataclass
class AuditReport:
    """Failure counts of one predicate over many seeds."""

    name: str
    trials: int
    failures: int
    failing_seeds: List[int] = field(default_factory=list)

    @property
    def failure_rate(self) -> float:
        """Fraction of trials on which the predicate failed."""
        return self.failures / self.trials if self.trials else 0.0


def audit(
    name: str,
    predicate: Callable[[int], bool],
    seeds: Sequence[int],
) -> AuditReport:
    """Evaluate ``predicate(seed)`` over ``seeds``; count False results.

    Exceptions are *not* swallowed: a predicate that crashes indicates a
    bug, not a low-probability event, and must surface.
    """
    failing = [seed for seed in seeds if not predicate(seed)]
    return AuditReport(
        name=name,
        trials=len(seeds),
        failures=len(failing),
        failing_seeds=failing,
    )


def run_e14_whp_audit(
    n: int = 256,
    avg_degree: float = 16.0,
    trials: int = 30,
    epsilon: float = 0.1,
) -> List[Dict[str, Any]]:
    """E14: failure rates of the w.h.p. invariants over independent seeds.

    Each trial draws a fresh graph *and* fresh algorithm randomness.  The
    audited claims: MIS maximality (Thm 1.1), fractional validity + cover
    coverage + Lemma 4.7 memory (Lemma 4.2), integral matching validity
    and its (2+ε) factor (Thm 1.2).
    """
    p = min(1.0, avg_degree / max(1, n - 1))
    matching_config = MatchingConfig(epsilon=epsilon)

    def graph_for(seed: int) -> Graph:
        return gnp_random_graph(n, p, seed=seed)

    def all_passed(checks) -> bool:
        return all(check.passed for check in checks)

    def mis_ok(seed: int) -> bool:
        graph = graph_for(seed)
        return all_passed(check_mis(graph, mis_mpc(graph, seed=seed).mis))

    def fractional_ok(seed: int) -> bool:
        graph = graph_for(seed)
        result = mpc_fractional_matching(graph, config=matching_config, seed=seed)
        return (
            all_passed(
                check_fractional_matching(
                    graph, result.matching.edges, result.matching.x
                )
            )
            and all_passed(check_vertex_cover(graph, result.vertex_cover))
            and result.max_machine_edges <= 4 * n
        )

    def integral_ok(seed: int) -> bool:
        graph = graph_for(seed)
        result = mpc_maximum_matching(graph, config=matching_config, seed=seed)
        return all_passed(
            check_matching(graph, result.matching)
            # The paper's literal 2+eps (not the conservative 2+O(eps)
            # envelope of matching_factor) — E14 exists to measure how
            # often the tight constant fails, not to always pass.  The
            # cap override forces the exact Blossom comparison at any n
            # the caller chose; a skipped oracle would read as a pass.
            + check_matching_ratio(
                graph, result.matching, 2.0 + epsilon, cap=graph.num_vertices
            )
        )

    seeds = list(range(trials))
    reports = [
        audit("MIS maximal (Thm 1.1)", mis_ok, seeds),
        audit("fractional valid + cover + memory (Lemma 4.2/4.7)", fractional_ok, seeds),
        audit("integral matching (2+eps) (Thm 1.2)", integral_ok, seeds),
    ]
    return [
        {
            "claim": report.name,
            "trials": report.trials,
            "failures": report.failures,
            "failure_rate": report.failure_rate,
            "failing_seeds": str(report.failing_seeds[:5]),
        }
        for report in reports
    ]
