"""Invariant checkers: pure functions from (graph, solution) to checks.

One module holds the ground-truth definition of "this output is correct"
for every task the registry solves, expressed as :class:`CheckResult`
lists so callers (the facade's ``verify=`` hook, the differential
harness, :mod:`repro.analysis.whp_audit`) share a single implementation
instead of re-asserting ad-hoc predicates:

* **structural validity** — MIS independence + maximality, matching
  vertex-disjointness, vertex-cover coverage, fractional LP feasibility
  with ε-slack (the Section 2 definitions, via
  :mod:`repro.graph.properties`);
* **oracle ratios** — on instances small enough for the exact baselines
  (:mod:`repro.verify.oracles`), the output is compared against the true
  optimum at the paper's claimed approximation factor (Theorem 1.2's
  ``2+ε``, Corollary 1.3's ``1+ε``, Corollary 1.4's ``2+O(ε)``, Lemma
  4.1's duality sandwich for fractional matchings).

The factor constants mirror what the existing test suite asserts (e.g.
``2 + 50ε`` as the conservative ``2 + O(ε)`` envelope for the MPC
fractional process) so the checkers codify, rather than re-invent, the
reproduction's empirical bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Collection, Dict, Iterable, List, Mapping, Optional

from repro.graph.graph import Edge, Graph
from repro.graph.properties import (
    is_independent_set,
    is_matching,
    is_maximal_independent_set,
    is_valid_fractional_matching,
    is_vertex_cover,
)
from repro.graph.weighted import WeightedGraph
from repro.verify import oracles
from repro.verify.certificate import CheckResult

# Float slack absorbing accumulation error in weight comparisons.
TOLERANCE = 1e-9


def _skipped(name: str, reason: str) -> CheckResult:
    """A vacuously-passing check that records why it did not run."""
    return CheckResult(name=name, passed=True, detail=f"skipped: {reason}")


# ---------------------------------------------------------------------------
# structural validity
# ---------------------------------------------------------------------------


def check_mis(graph: Graph, vertices: Collection[int]) -> List[CheckResult]:
    """Independence and maximality — the two halves of Theorem 1.1's object."""
    # A maximal independent set is independent, so the separate
    # independence pass only runs to tell the two failures apart.
    maximal = is_maximal_independent_set(graph, vertices)
    independent = maximal or is_independent_set(graph, vertices)
    return [
        CheckResult(
            name="mis_independent",
            passed=independent,
            detail="" if independent else "two chosen vertices are adjacent",
        ),
        CheckResult(
            name="mis_maximal",
            passed=maximal,
            detail="" if maximal else "some vertex could still be added",
        ),
    ]


def check_matching(graph: Graph, edges: Iterable[Edge]) -> List[CheckResult]:
    """Edges exist in the graph and are pairwise vertex-disjoint."""
    valid = is_matching(graph, edges)
    return [
        CheckResult(
            name="matching_valid",
            passed=valid,
            detail="" if valid else "non-edge or shared endpoint in matching",
        )
    ]


def check_vertex_cover(graph: Graph, cover: Iterable[int]) -> List[CheckResult]:
    """Every edge has at least one endpoint in the cover."""
    covered = is_vertex_cover(graph, cover)
    return [
        CheckResult(
            name="cover_covers_all_edges",
            passed=covered,
            detail="" if covered else "some edge has no endpoint in the cover",
        )
    ]


def check_fractional_matching(
    graph: Graph,
    weights: Mapping[Edge, float],
    tolerance: float = TOLERANCE,
) -> List[CheckResult]:
    """LP feasibility with ε-slack: ``x_e >= 0`` and ``y_v <= 1 + tol``.

    This is the feasibility half of Lemma 4.1's duality argument;
    ``tolerance`` absorbs float accumulation across the multiplicative
    weight updates.
    """
    feasible = is_valid_fractional_matching(graph, weights, tolerance=tolerance)
    return [
        CheckResult(
            name="fractional_feasible",
            passed=feasible,
            detail=""
            if feasible
            else "negative weight, non-edge, or vertex load above 1",
        )
    ]


# ---------------------------------------------------------------------------
# oracle ratios (small instances only; skipped above the oracle caps)
# ---------------------------------------------------------------------------


def check_matching_ratio(
    graph: Graph,
    edges: Iterable[Edge],
    factor: float,
    name: str = "matching_ratio",
    cap: Optional[int] = None,
) -> List[CheckResult]:
    """``|M| * factor >= ν(G)`` against the Blossom oracle.

    ``cap`` overrides the default oracle size cap — pass
    ``graph.num_vertices`` to force the exact comparison regardless of
    size (the E14 audit does; Blossom is polynomial, merely slow).
    """
    optimum = oracles.maximum_matching_size(
        graph, cap=oracles.MATCHING_ORACLE_CAP if cap is None else cap
    )
    if optimum is None:
        return [_skipped(name, "graph above matching-oracle cap")]
    size = len(list(edges))
    passed = size * factor >= optimum - TOLERANCE
    return [
        CheckResult(
            name=name,
            passed=passed,
            detail=f"|M|={size}, ν={optimum}, factor={factor:g}",
            observed=float(size),
            bound=optimum / factor if factor else 0.0,
        )
    ]


def check_vertex_cover_ratio(
    graph: Graph, cover: Iterable[int], factor: float
) -> List[CheckResult]:
    """``|C| <= factor * OPT_vc`` against the brute-force oracle."""
    optimum = oracles.minimum_vertex_cover_size(graph)
    if optimum is None:
        return [_skipped("cover_ratio", "graph above brute-force cap")]
    size = len(set(cover))
    bound = factor * optimum
    passed = size <= bound + TOLERANCE
    return [
        CheckResult(
            name="cover_ratio",
            passed=passed,
            detail=f"|C|={size}, OPT={optimum}, factor={factor:g}",
            observed=float(size),
            bound=bound,
        )
    ]


def check_fractional_bands(
    graph: Graph,
    weights: Mapping[Edge, float],
    lower_factor: float,
    slack_vertices: int = 0,
) -> List[CheckResult]:
    """Duality sandwich for a fractional matching's total weight ``W``.

    Upper: ``W <= 3/2 * ν`` (the fractional-matching polytope bound for
    simple graphs); lower: ``W * lower_factor >= ν - slack_vertices``
    (Lemma 4.1's constant-fraction guarantee, with the reproduction's
    conservative ``2 + O(ε)`` envelope).  ``slack_vertices`` is the
    number of Line (i) heavy removals the run reported: each removed
    vertex had load about 1 when its edges were discarded, so it accounts
    for at most one unit of lost matching — at feasible input sizes these
    removals are not the vanishing-probability events the paper's
    asymptotic analysis makes them (e.g. a large star's center routinely
    overshoots inside one compressed phase), so the band must discount
    them rather than flag faithful behavior.
    """
    optimum = oracles.maximum_matching_size(graph)
    if optimum is None:
        return [_skipped("fractional_bands", "graph above matching-oracle cap")]
    weight = sum(weights.values())
    upper = 1.5 * optimum + TOLERANCE
    upper_ok = weight <= upper
    target = max(0, optimum - max(0, slack_vertices))
    lower_ok = weight * lower_factor >= target - TOLERANCE
    return [
        CheckResult(
            name="fractional_upper_band",
            passed=upper_ok,
            detail=f"W={weight:.6g}, ν={optimum}",
            observed=weight,
            bound=upper,
        ),
        CheckResult(
            name="fractional_lower_band",
            passed=lower_ok,
            detail=(
                f"W={weight:.6g}, ν={optimum}, factor={lower_factor:g}, "
                f"heavy_removed={slack_vertices}"
            ),
            observed=weight,
            bound=target / lower_factor if lower_factor else 0.0,
        ),
    ]


def check_weighted_matching_ratio(
    graph: WeightedGraph, edges: Iterable[Edge], factor: float
) -> List[CheckResult]:
    """``w(M) * factor >= OPT_w`` against the brute-force weighted oracle."""
    optimum = oracles.maximum_weight_matching_weight(graph)
    if optimum is None:
        return [_skipped("weighted_ratio", "graph above brute-force cap")]
    weight = graph.matching_weight(edges)
    passed = weight * factor >= optimum - TOLERANCE
    return [
        CheckResult(
            name="weighted_ratio",
            passed=passed,
            detail=f"w(M)={weight:.6g}, OPT={optimum:.6g}, factor={factor:g}",
            observed=weight,
            bound=optimum / factor if factor else 0.0,
        )
    ]


# ---------------------------------------------------------------------------
# per-task dispatch
# ---------------------------------------------------------------------------

# The claimed approximation factor per task, as a function of ε.  These are
# the conservative envelopes the test suite has always asserted: Theorem
# 1.2's 2+O(ε) with the O(ε) constant at 50 (matching
# tests/test_matching_mpc.py), Corollary 1.3's 1+ε with a 5x envelope, and
# Corollary 1.4's 2+O(ε) for weighted matchings.


def matching_factor(epsilon: float) -> float:
    """(2 + O(ε)) for maximal-matching-flavoured outputs (Theorem 1.2)."""
    return 2.0 + 50.0 * epsilon


def one_plus_eps_factor(epsilon: float) -> float:
    """(1 + O(ε)) for the augmenting-path refinement (Corollary 1.3)."""
    return 1.0 + 5.0 * epsilon


def weighted_factor(epsilon: float) -> float:
    """(2 + O(ε)) for the weight-class reduction (Corollary 1.4)."""
    return 2.0 + 50.0 * epsilon


@dataclass(frozen=True)
class CheckedSolution:
    """A canonical solution in the one form its checks read (vertex list,
    edge list or ``{(u, v): x}`` map), with its structural checks."""

    form: Any
    checks: List[CheckResult]
    weight: Optional[float] = None

    def metrics(self) -> Dict[str, Any]:
        """The report's quality metrics: ``size``, ``valid``, ``weight``."""
        valid = all(check.passed for check in self.checks)
        metrics: Dict[str, Any] = {"size": len(self.form), "valid": valid}
        if self.weight is not None:
            metrics["weight"] = self.weight
        return metrics


_STRUCTURAL = {
    "mis": check_mis,
    "vertex_cover": check_vertex_cover,
    "fractional_matching": check_fractional_matching,
    "matching": check_matching,
    "one_plus_eps_matching": check_matching,
    "weighted_matching": check_matching,
}


def check_solution(
    task: str,
    graph: Graph,
    solution: Any,
    weighted_graph: Optional[WeightedGraph] = None,
) -> CheckedSolution:
    """The structural checks for one task's canonical solution.

    ``solution`` uses the canonical report shapes: a vertex list for
    ``mis``/``vertex_cover``, an edge list for the matching tasks, and
    ``[u, v, x]`` triples for ``fractional_matching``.  ``weight`` is the
    left-to-right sum in canonical order, or ``w(M)`` on ``weighted_graph``.
    """
    if task not in _STRUCTURAL:
        raise ValueError(f"unknown task {task!r}")
    form, weight = solution, None
    if task == "fractional_matching":
        form = {(u, v): x for u, v, x in solution}
        weight = sum(form.values())
    elif task == "weighted_matching" and weighted_graph is not None:
        weight = weighted_graph.matching_weight(form)
    return CheckedSolution(form, _STRUCTURAL[task](graph, form), weight)


def certify_solution(
    task: str,
    graph: Graph,
    solution: object,
    epsilon: float = 0.1,
    weighted_graph: Optional[WeightedGraph] = None,
    heavy_removed: int = 0,
    checked: Optional[CheckedSolution] = None,
) -> List[CheckResult]:
    """All validity + ratio checks for one task's canonical solution.

    ``weighted_graph`` supplies weights for ``weighted_matching``;
    ``heavy_removed`` is the run's reported Line (i) removal count
    (discounted by the fractional lower band); ``checked`` is an existing
    :func:`check_solution` result for ``solution``, reused rather than rerun.
    """
    if checked is None:
        checked = check_solution(task, graph, solution, weighted_graph)
    form, results = checked.form, list(checked.checks)
    if task == "vertex_cover":
        results += check_vertex_cover_ratio(graph, form, matching_factor(epsilon))
    elif task == "matching":
        results += check_matching_ratio(graph, form, matching_factor(epsilon))
    elif task == "one_plus_eps_matching":
        results += check_matching_ratio(
            graph, form, one_plus_eps_factor(epsilon), name="one_plus_eps_ratio"
        )
    elif task == "weighted_matching" and weighted_graph is not None:
        results += check_weighted_matching_ratio(
            weighted_graph, form, weighted_factor(epsilon)
        )
    elif task == "fractional_matching":
        results += check_fractional_bands(
            graph, form, matching_factor(epsilon), slack_vertices=heavy_removed
        )
    return results
