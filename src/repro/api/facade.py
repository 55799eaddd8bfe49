"""``solve()`` — one entry point for every task × backend pair.

The façade handles the plumbing every scenario used to re-wire by hand:
config resolution (``None`` → the backend's default dataclass, ``dict`` →
constructed, dataclass → used as-is), the optional memory ``budget``
override, seed threading, timing, ground-truth quality metrics, and the
uniform :class:`~repro.api.report.RunReport` output.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from typing import Any, Dict, Optional, Union

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

from repro.api.registry import SolverEntry, registry
from repro.dist.executor import resolve_executor
from repro.govern import GovernanceDegraded, GovernancePolicy, Governor
from repro.mpc.cluster import MemoryExceededError
from repro.api.report import RunReport, canonical_solution
from repro.graph.csr import CSRGraph, as_csr, canonical_graph
from repro.graph.graph import Graph
from repro.graph.weighted import WeightedGraph

GraphLike = Union[Graph, WeightedGraph, CSRGraph]

# Where rung 3 of the governance ladder lands: the sequential reference
# solver for the task — no memory envelope to breach, quality still inside
# the verify oracle bands.
_DEGRADE_BACKENDS = {
    "mis": "greedy",
    "fractional_matching": "central",
    "matching": "greedy",
    "vertex_cover": "greedy",
    "one_plus_eps_matching": "greedy",
    "weighted_matching": "greedy",
}


def solve(
    task: str,
    graph: GraphLike,
    *,
    backend: str = "auto",
    config: Any = None,
    seed: Optional[int] = None,
    budget: Optional[float] = None,
    verify: Any = False,
    executor: Any = None,
    workers: Optional[int] = None,
    fault_policy: Any = None,
    fault_plan: Any = None,
    governance: Any = None,
) -> RunReport:
    """Solve ``task`` on ``graph`` with the chosen ``backend``.

    Parameters
    ----------
    task:
        One of :data:`repro.api.TASKS` (``"mis"``, ``"matching"``, ...).
    graph:
        A :class:`Graph` or :class:`CSRGraph` (an out-of-core
        ``MMapCSRGraph`` too); ``"weighted_matching"`` takes a
        :class:`WeightedGraph` (a plain graph is wrapped with unit
        weights).  Weighted inputs to unweighted tasks run on their
        ``structure``.  Unweighted backends receive the input's CSR form
        (memoized on a ``Graph``, so repeated solves convert once).
    backend:
        A backend name or ``"auto"`` (the task's highest-priority backend
        — the paper's MPC algorithm wherever one exists).
    config:
        ``None`` (backend default), a config dataclass, or a dict of
        field overrides for the backend's config type.
    seed:
        Explicit integer seed for reproducibility (``None`` = the
        library's deterministic default).  Unlike the algorithm modules,
        the façade rejects ``random.Random`` instances — the report's
        ``seed`` field must be able to reproduce the run.
    budget:
        Optional per-machine memory budget in units of ``n`` words;
        overrides the config's ``memory_factor`` (the knob every sizing
        decision flows through via :class:`~repro.mpc.spec.ClusterSpec`).
        Backends without a memory model (``greedy``, ``pregel``
        baselines, exact solvers) ignore it, so sweep-wide budgets work
        with ``backends="all"``.
    verify:
        ``False`` (default) skips verification; ``True`` runs the
        :mod:`repro.verify` certificate under the default
        :class:`~repro.verify.BudgetPolicy`; a ``BudgetPolicy`` instance
        runs it under that policy.  The serialized certificate (invariant
        checks, oracle ratios on small inputs, round/memory budget
        audits) lands in ``report.verification`` and travels through
        ``to_json``/``from_json`` like every other field.
    executor:
        Where the MPC solvers' machine phases run: ``None`` (default,
        one in-process worker; no ``extras["executor"]`` record),
        ``"local"`` (``workers`` in-process workers over the reference
        transport, with per-phase walls in ``extras["executor"]``),
        ``"parallel"`` (a multiprocessing worker pool with shared-memory
        graph arrays), or a reusable :class:`repro.dist.DistExecutor`
        instance.  Only MPC-backend entries accept it; outputs and
        budget audits are byte-identical across executors for a fixed
        seed (see DISTRIBUTED.md).
    workers:
        Worker count for a string ``executor`` (default 2).  With an
        executor instance it must match the instance (or be ``None``);
        without an executor it is an error.
    fault_policy:
        Opt ``executor="parallel"`` into the supervised recovery path
        (:mod:`repro.dist.faults`): ``True`` for the default
        :class:`~repro.dist.FaultPolicy`, a policy instance, or a dict
        of its fields.  Failed phases are retried with backoff, dead
        workers respawned with their state journal replayed, and — when
        the budget runs out — the solve degrades mid-flight onto the
        in-process transport, byte-identical by construction.  The
        recovery record lands in ``report.extras["faults"]``.
    fault_plan:
        A :class:`~repro.dist.FaultPlan` (or its dict form) of
        deterministic fault injections, for chaos testing the supervised
        path; implies a default ``fault_policy`` when none is given.
        Requires ``executor="parallel"``.
    governance:
        Opt into the :mod:`repro.govern` load-governance ladder:
        ``True`` for the default :class:`~repro.govern.GovernancePolicy`,
        a policy instance, or a dict of its fields.  A governed solve
        watches observed per-phase load and intervenes *before* the hard
        memory cap aborts — adaptive sparsification, then batched
        chunking, then graceful degradation to the task's sequential
        reference backend — with every intervention recorded in
        ``report.extras["governance"]``.  Mirrors ``budget`` semantics:
        backends without a memory model ignore it so sweep-wide settings
        work.  When no rung fires the output is byte-identical to the
        ungoverned run; requires ``executor=None`` (the distributed
        transports have their own supervision, see ``fault_policy``).

    Returns
    -------
    RunReport
        Frozen, serializable; ``report.valid`` reflects the ground-truth
        validator for the task.
    """
    if seed is not None and not isinstance(seed, int):
        raise TypeError(
            f"solve() takes an int seed (got {type(seed).__name__}) so the "
            "report's seed field reproduces the run"
        )
    entry = registry.resolve(task, backend)
    dist_executor, owned = resolve_executor(
        executor, workers, fault_policy=fault_policy, fault_plan=fault_plan
    )
    if dist_executor is not None and not entry.mpc_substrate:
        if owned:
            dist_executor.close()
        raise ValueError(
            f"backend {entry.backend!r} for task {entry.task!r} does not "
            f"support an executor (only the MPC-backend solvers do)"
        )
    prepared = _prepare_graph(entry, graph)
    weighted = prepared if isinstance(prepared, WeightedGraph) else None
    structure = prepared if weighted is None else weighted.structure
    # Input preparation, not solver time: a Graph memoizes this form, so
    # solvers and validators reuse it and repeated solves convert once.
    csr = as_csr(structure)
    solver_graph = csr if weighted is None else weighted
    resolved_config = _resolve_config(entry, config, budget)

    gov_policy = GovernancePolicy.from_any(governance)
    governor: Optional[Governor] = None
    if gov_policy is not None and entry.mpc_substrate:
        # Entries off the MPC substrate ignore the request (like
        # ``budget``) so sweep-wide settings work across backends.
        if dist_executor is not None:
            if owned:
                dist_executor.close()
            raise ValueError(
                "governance requires executor=None — the distributed "
                "transports carry their own supervision (fault_policy)"
            )
        governor = Governor(gov_policy)

    solver_kwargs: Dict[str, Any] = {}
    if dist_executor is not None:
        dist_executor.reset_metrics()
        solver_kwargs["executor"] = dist_executor
    if governor is not None:
        solver_kwargs["governor"] = governor
    degraded_entry: Optional[SolverEntry] = None
    try:
        started = time.perf_counter()
        try:
            output = entry.fn(
                solver_graph,
                config=resolved_config,
                seed=seed,
                **solver_kwargs,
            )
        except (GovernanceDegraded, MemoryExceededError) as failure:
            if governor is None or not gov_policy.allow_degrade:
                raise
            if isinstance(failure, MemoryExceededError):
                # The hard cap aborted despite rungs 1-2 (a disabled rung
                # or an unpredicted spike): record the degrade reason the
                # ladder would have written, then fall back the same way.
                try:
                    governor.degrade(
                        f"hard memory cap exceeded: {failure.used_words} > "
                        f"{failure.capacity_words} words",
                        failure.context,
                    )
                except GovernanceDegraded:
                    pass
            degraded_entry = registry.get(
                entry.task, _DEGRADE_BACKENDS[entry.task]
            )
            fallback_config = _resolve_config(
                degraded_entry,
                config if isinstance(config, dict) else None,
                None,
            )
            output = degraded_entry.fn(
                solver_graph, config=fallback_config, seed=seed
            )
        elapsed = time.perf_counter() - started
    finally:
        # Close owned workers before reading the RSS high-water mark so
        # RUSAGE_CHILDREN covers the (reaped) worker processes.
        if owned and dist_executor is not None:
            dist_executor.close()
    peak_rss = _peak_rss_bytes()

    # Local import: repro.verify sits above the facade (its differential
    # harness drives solve()), so the dependency must stay one-way at
    # module-import time.
    from repro.verify import BudgetPolicy, certify_report, check_solution

    solution = canonical_solution(entry.solution_kind, output.solution)
    # The checks read the solver's arrays, not the report's lists.
    checked = check_solution(entry.task, csr, output.solution, weighted)

    extras = dict(output.extras)
    if dist_executor is not None:
        recovery_log = dist_executor.recovery_log
        extras["executor"] = {
            "kind": dist_executor.kind,
            "workers": dist_executor.workers,
            "supervised": recovery_log is not None,
            "phase_walls": dist_executor.phase_walls(),
        }
        if recovery_log is not None:
            # Read after close: the log object outlives the transport.
            extras["faults"] = recovery_log.summary()
    if governor is not None:
        governance_record = governor.summary()
        governance_record["degraded"] = degraded_entry is not None
        if degraded_entry is not None:
            governance_record["degraded_to"] = degraded_entry.backend
            governance_record["reason"] = governor.degraded_reason
        extras["governance"] = governance_record

    report = RunReport(
        task=entry.task,
        backend=entry.backend,
        n=csr.num_vertices,
        num_edges=csr.num_edges,
        solution_kind=entry.solution_kind,
        solution=solution,
        metrics=checked.metrics(),
        rounds=output.rounds,
        max_machine_words=output.max_machine_words,
        seed=seed,
        config=_config_snapshot(resolved_config),
        wall_time_s=elapsed,
        peak_rss_bytes=peak_rss,
        total_comm_words=output.total_comm_words,
        extras=extras,
    )
    if verify:
        policy = verify if isinstance(verify, BudgetPolicy) else None
        certificate = certify_report(
            prepared, report, entry=entry, policy=policy, checked=checked
        )
        report = dataclasses.replace(report, verification=certificate.to_dict())
    return report


# getrusage().ru_maxrss unit per platform: macOS reports bytes; Linux and
# the BSDs report kibibytes (so do AIX and Solaris where the field is
# filled at all).  Unknown POSIX platforms get the KiB majority reading.
_RU_MAXRSS_UNITS = {"darwin": 1}
_RU_MAXRSS_DEFAULT_UNIT = 1024


def _ru_maxrss_unit(platform: Optional[str] = None) -> int:
    """Bytes per ``ru_maxrss`` unit on ``platform`` (default: this one)."""
    name = sys.platform if platform is None else platform
    return _RU_MAXRSS_UNITS.get(name, _RU_MAXRSS_DEFAULT_UNIT)


def _peak_rss_bytes() -> int:
    """Peak resident-set size of this run, in bytes (0 if unknown).

    ``ru_maxrss`` is a process-lifetime high-water mark, so sweeps should
    read it as "memory needed to get this far", not a per-run delta.  The
    self reading misses executor worker processes entirely, so the
    ``RUSAGE_CHILDREN`` high-water mark (populated as workers are reaped
    — the façade closes owned executors before reading) is added: the sum
    bounds what the run kept resident across all its processes.  The raw
    values are platform-dependent (:data:`_RU_MAXRSS_UNITS`); the report
    field is normalized to bytes everywhere.
    """
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(peak * _ru_maxrss_unit())


def _prepare_graph(entry: SolverEntry, graph: GraphLike) -> GraphLike:
    """Match the input graph type to what the backend expects."""
    if entry.weighted:
        if isinstance(graph, WeightedGraph):
            return graph
        # Canonical layout: independent of build order, keeps the CSR memo.
        return WeightedGraph.unit_weights(canonical_graph(graph))
    if isinstance(graph, WeightedGraph):
        return graph.structure
    return graph


def _resolve_config(
    entry: SolverEntry,
    config: Any,
    budget: Optional[float],
) -> Any:
    """Normalize ``config`` to the backend's config dataclass (or None)."""
    if budget is not None and budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if entry.config_factory is None:
        # Loose overrides (dicts, budget) are sweep-wide hints: a backend
        # with no knobs ignores them so ``backends="all"`` sweeps work.  A
        # typed config dataclass is targeted, so mis-routing it raises.
        if config is not None and not isinstance(config, dict):
            raise TypeError(
                f"backend {entry.backend!r} for task {entry.task!r} takes no config"
            )
        return None
    if config is None:
        resolved = entry.config_factory()
    elif isinstance(config, dict):
        resolved = entry.config_factory(**config)
    else:
        resolved = config
    if budget is not None:
        if not hasattr(resolved, "memory_factor"):
            raise TypeError(
                f"backend {entry.backend!r} config has no memory budget to override"
            )
        resolved = dataclasses.replace(resolved, memory_factor=float(budget))
    return resolved


def _config_snapshot(config: Any) -> Dict[str, Any]:
    """A JSON-ready snapshot of the resolved config."""
    if config is None:
        return {}
    snapshot = dataclasses.asdict(config)
    snapshot["__type__"] = type(config).__name__
    return snapshot

