"""The differential harness: sweep the registry, cross-check the backends.

Every ``(task, backend)`` pair runs on the same (graph-family x size x
seed) matrix with verification enabled, then backends solving the same
instance are compared:

* every run's certificate must pass (validity, oracle ratios, budgets);
* solution *quality* across backends must sit inside the task's
  agreement band — e.g. two maximal-matching backends can differ by at
  most the (2+O(ε)) factor both guarantee, so ``max <= band * min``
  catches a backend silently returning degenerate output even when that
  output is technically a valid matching.

MIS has no quality band (two maximal independent sets legitimately
differ by Θ(n) on a star), so there only the certificates are compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.graph.generators import (
    barabasi_albert,
    gnp_random_graph,
    grid_graph,
    random_bipartite_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.graph.weighted import WeightedGraph
from repro.utils.rng import make_rng
from repro.verify.budgets import BudgetPolicy
from repro.verify.checkers import matching_factor, one_plus_eps_factor

# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------

# Each family maps (n, seed) -> Graph, covering the regimes the paper's
# experiments stress: sparse/dense G(n,p), power-law degree skew,
# bipartite matching workloads, and structured graphs with known optima.
FAMILIES: Dict[str, Callable[[int, int], Graph]] = {
    "gnp_sparse": lambda n, seed: gnp_random_graph(
        n, min(1.0, 8.0 / max(1, n)), seed=seed
    ),
    "gnp_dense": lambda n, seed: gnp_random_graph(n, 0.25, seed=seed),
    # Adversarial memory regimes: p=0.5 makes m ~ n²/4 (every scatter is
    # hot), attachment=8 makes hubs whose induced subgraphs concentrate
    # on few machines.  These are the cells where undersized budgets
    # abort ungoverned and the repro.govern ladder must save the run.
    "gnp_dense_half": lambda n, seed: gnp_random_graph(n, 0.5, seed=seed),
    "powerlaw": lambda n, seed: barabasi_albert(max(n, 5), 3, seed=seed),
    "powerlaw_heavy": lambda n, seed: barabasi_albert(max(n, 10), 8, seed=seed),
    "bipartite": lambda n, seed: random_bipartite_graph(
        n // 2, n - n // 2, min(1.0, 8.0 / max(1, n)), seed=seed
    ),
    "grid": lambda n, seed: grid_graph(
        max(2, math.isqrt(n)), max(2, math.isqrt(n))
    ),
    "star": lambda n, seed: star_graph(max(1, n - 1)),
}

DEFAULT_FAMILIES = ("gnp_sparse", "gnp_dense", "powerlaw", "grid")

# The families the adversarial-conformance job sweeps under tight budgets
# with governance enabled (see GOVERNANCE.md).
ADVERSARIAL_FAMILIES = ("gnp_dense_half", "powerlaw_heavy")


def attach_weights(graph: Graph, seed: int) -> WeightedGraph:
    """Deterministic positive weights for the weighted-matching task."""
    # Knuth multiplicative hash decouples the weight stream from the
    # structural seed, so weights don't correlate with edge placement.
    rng = make_rng((seed * 2654435761) % 2**32)
    weighted = WeightedGraph(graph.num_vertices)
    for u, v in graph.edges():
        weighted.add_edge(u, v, rng.uniform(0.1, 100.0))
    return weighted


# ---------------------------------------------------------------------------
# agreement bands
# ---------------------------------------------------------------------------


def agreement_band(task: str, epsilon: float = 0.1) -> Optional[float]:
    """Max allowed ratio between backend qualities on the same instance.

    Derived from the per-backend guarantees: if every backend's quality
    ``q`` satisfies ``OPT / f <= q <= u * OPT``, any two backends differ
    by at most ``u * f``.  The factors come from
    :mod:`repro.verify.checkers` so band and certificate constants cannot
    drift apart.  ``None`` means no band (MIS).
    """
    if task == "mis":
        return None
    if task == "one_plus_eps_matching":
        # Everyone is within (1 + O(eps)) of the optimum.
        return one_plus_eps_factor(epsilon)
    if task == "fractional_matching":
        # Upper 3/2 * nu, lower nu / (2 + O(eps)).
        return 1.5 * matching_factor(epsilon)
    # matching / vertex_cover / weighted_matching: (2 + O(eps)) spread.
    return matching_factor(epsilon)


def quality_of(report: Any) -> float:
    """The scalar compared across backends (size, or weight when present).

    Fractional runs add back their reported Line (i) heavy-removal count:
    each removed vertex discarded about one unit of achievable weight, so
    the adjusted quality is what the run *accounted for* — otherwise a
    faithful heavy removal (a star's center overshooting inside one
    compressed phase) reads as a band violation.
    """
    if report.solution_kind == "fractional" or "weight" in report.metrics:
        weight = float(report.metrics.get("weight", 0.0))
        return weight + float(report.extras.get("heavy_removed", 0))
    return float(report.size)


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


@dataclass
class DifferentialFailure:
    """One failed assertion of the sweep."""

    kind: str  # "run_error" | "certificate" | "band"
    task: str
    backend: str
    family: str
    n: int
    seed: int
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "task": self.task,
            "backend": self.backend,
            "family": self.family,
            "n": self.n,
            "seed": self.seed,
            "detail": self.detail,
        }


@dataclass
class DifferentialReport:
    """Outcome of :func:`differential_sweep`."""

    reports: List[Any] = field(default_factory=list)
    failures: List[DifferentialFailure] = field(default_factory=list)
    runs: int = 0

    @property
    def ok(self) -> bool:
        """Whether every run certified and every agreement band held."""
        return not self.failures

    def summary_rows(self) -> List[Dict[str, Any]]:
        """Per (task, backend) aggregate rows for table display."""
        grouped: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for report in self.reports:
            row = grouped.setdefault(
                (report.task, report.backend),
                {
                    "task": report.task,
                    "backend": report.backend,
                    "runs": 0,
                    "verified": 0,
                    "max_rounds": 0,
                },
            )
            row["runs"] += 1
            row["verified"] += int(report.verified)
            row["max_rounds"] = max(row["max_rounds"], report.rounds)
        return [grouped[key] for key in sorted(grouped)]


def differential_sweep(
    tasks: Any = "all",
    backends: Any = "all",
    *,
    families: Sequence[str] = DEFAULT_FAMILIES,
    sizes: Sequence[int] = (32, 64),
    seeds: Sequence[int] = (0, 1),
    policy: Optional[BudgetPolicy] = None,
    epsilon: float = 0.1,
    budget: Optional[float] = None,
    governance: Any = None,
    on_report: Optional[Callable[[Any], None]] = None,
) -> DifferentialReport:
    """Run the full differential matrix and collect failures.

    Parameters
    ----------
    tasks / backends:
        ``"all"`` or an explicit sequence of names.  Backends are
        intersected with what the registry offers per task.
    families:
        Names from :data:`FAMILIES`.
    sizes / seeds:
        Instance sizes and RNG seeds; each (family, size, seed) triple is
        one shared instance every selected backend must agree on.
    policy:
        Budget policy threaded into each run's certificate.
    epsilon:
        ε used for the agreement bands (runs use backend-default configs,
        whose ε is 0.1).
    budget:
        Per-machine memory budget (units of ``n`` words) threaded into
        every run.  Combined with the adversarial families this is how
        the matrix reaches the cells where ungoverned runs abort.
    governance:
        Governance opt-in threaded into every run (``True``, a policy,
        or its dict; see :func:`repro.api.solve`).  Governed runs must
        still certify and sit inside the same agreement bands — that is
        the whole point of auditing them here instead of byte-pinning.
    on_report:
        Optional callback per finished report (progress streaming).
    """
    from repro.api import solve
    from repro.api.registry import BACKENDS, registry

    policy = policy or BudgetPolicy()
    known_tasks = registry.tasks()
    task_list = list(known_tasks) if tasks == "all" else list(tasks)
    # Unknown names raise rather than silently shrinking the matrix: a
    # typo (or a rename) must not turn the conformance sweep's "exit 0
    # iff clean" contract into a vacuous pass over zero runs.
    bad_tasks = [name for name in task_list if name not in known_tasks]
    if bad_tasks:
        raise ValueError(f"unknown tasks {bad_tasks}; known: {known_tasks}")
    if backends != "all":
        bad_backends = [name for name in backends if name not in BACKENDS]
        if bad_backends:
            raise ValueError(
                f"unknown backends {bad_backends}; known: {list(BACKENDS)}"
            )
    unknown = [name for name in families if name not in FAMILIES]
    if unknown:
        raise ValueError(
            f"unknown families {unknown}; known: {sorted(FAMILIES)}"
        )

    outcome = DifferentialReport()
    for task in task_list:
        available = registry.backends(task)
        if backends == "all":
            chosen = available
        else:
            chosen = [name for name in backends if name in available]
        if not chosen:
            continue
        band = agreement_band(task, epsilon)
        for family in families:
            for n in sizes:
                for seed in seeds:
                    graph = FAMILIES[family](n, seed)
                    if task == "weighted_matching":
                        instance: Any = attach_weights(graph, seed)
                    else:
                        instance = graph
                    siblings: List[Any] = []
                    for backend in chosen:
                        outcome.runs += 1
                        try:
                            report = solve(
                                task,
                                instance,
                                backend=backend,
                                seed=seed,
                                budget=budget,
                                governance=governance,
                                verify=policy,
                            )
                        except Exception as error:
                            outcome.failures.append(
                                DifferentialFailure(
                                    kind="run_error",
                                    task=task,
                                    backend=backend,
                                    family=family,
                                    n=n,
                                    seed=seed,
                                    detail=f"{type(error).__name__}: {error}",
                                )
                            )
                            continue
                        outcome.reports.append(report)
                        siblings.append(report)
                        if on_report is not None:
                            on_report(report)
                        if not report.verified:
                            failed = [
                                check["name"]
                                for check in report.verification.get("checks", [])
                                if not check["passed"]
                            ]
                            outcome.failures.append(
                                DifferentialFailure(
                                    kind="certificate",
                                    task=task,
                                    backend=backend,
                                    family=family,
                                    n=n,
                                    seed=seed,
                                    detail=f"failed checks: {', '.join(failed)}",
                                )
                            )
                    if band is None or len(siblings) < 2:
                        continue
                    qualities = {
                        report.backend: quality_of(report) for report in siblings
                    }
                    low_backend = min(qualities, key=qualities.get)
                    high_backend = max(qualities, key=qualities.get)
                    low = qualities[low_backend]
                    high = qualities[high_backend]
                    if high > band * low + 1e-6:
                        # Blame the degenerate side: for a minimization
                        # task an oversized result is the outlier; for
                        # maximization an undersized one is.
                        suspect = (
                            high_backend if task == "vertex_cover" else low_backend
                        )
                        outcome.failures.append(
                            DifferentialFailure(
                                kind="band",
                                task=task,
                                backend=suspect,
                                family=family,
                                n=n,
                                seed=seed,
                                detail=(
                                    f"quality spread {low:.6g} ({low_backend}) vs "
                                    f"{high:.6g} ({high_backend}) exceeds band "
                                    f"{band:g}"
                                ),
                            )
                        )
    return outcome
