"""``certify_report`` — one call from a finished run to a full certificate.

This is the glue the facade's ``verify=`` hook and the differential
harness share: given the input graph and the :class:`RunReport` a solver
produced, run every applicable invariant checker plus the budget
auditors and bundle the results.  The façade passes in the structural
checks it already ran for ``metrics``, so no validator runs twice.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.graph.weighted import WeightedGraph
from repro.verify.budgets import BudgetPolicy, audit_budgets
from repro.verify.certificate import Certificate
from repro.verify.checkers import CheckedSolution, certify_solution

DEFAULT_EPSILON = 0.1


def report_epsilon(report: Any) -> float:
    """The ε the run was configured with (config snapshot or default)."""
    value = report.config.get("epsilon") if report.config else None
    return float(value) if value is not None else DEFAULT_EPSILON


def certify_report(
    graph: Any,
    report: Any,
    *,
    entry: Any = None,
    policy: Optional[BudgetPolicy] = None,
    checked: Optional[CheckedSolution] = None,
) -> Certificate:
    """Invariant + ratio + budget checks for one run.

    Parameters
    ----------
    graph:
        The graph the run solved (a :class:`~repro.graph.graph.Graph`, or
        a :class:`WeightedGraph` for weighted tasks).
    report:
        The :class:`~repro.api.report.RunReport` to certify.
    entry:
        The registry :class:`~repro.api.registry.SolverEntry` that
        produced the report (resolved from the global registry when
        omitted); supplies the declared round-bound class.
    policy:
        Budget policy (default :class:`BudgetPolicy`).
    checked:
        The :func:`~repro.verify.checkers.check_solution` result for
        ``report.solution`` when the caller already has it.
    """
    if entry is None:
        from repro.api.registry import registry

        entry = registry.get(report.task, report.backend)
    weighted = graph if isinstance(graph, WeightedGraph) else None
    structure = graph.structure if weighted is not None else graph

    certificate = Certificate()
    certificate.extend(
        certify_solution(
            report.task,
            structure,
            report.solution,
            epsilon=report_epsilon(report),
            weighted_graph=weighted,
            heavy_removed=int(report.extras.get("heavy_removed", 0)),
            checked=checked,
        )
    )
    certificate.extend(
        audit_budgets(
            report,
            policy,
            rounds_bound=entry.rounds_bound,
            rounds_constant=entry.rounds_constant,
        )
    )
    return certificate
