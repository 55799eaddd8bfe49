"""The ``(task, backend)`` solver registry behind :func:`repro.api.solve`.

A *task* is a problem ("mis", "matching", ...); a *backend* is an execution
model or algorithm family ("mpc", "congested_clique", "pregel", "central",
"greedy").  Adapters registered here wrap the library's existing entry
points into one calling convention::

    adapter(graph, *, config, seed, trace) -> SolverOutput

so the façade can dispatch any pair uniformly, and a later PR adds a
backend (sharded, cached, remote) by registering new adapters — no caller
changes.  :data:`repro.api.registry` is the global instance populated by
:mod:`repro.api.adapters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

TASKS = (
    "mis",
    "fractional_matching",
    "matching",
    "vertex_cover",
    "one_plus_eps_matching",
    "weighted_matching",
)

BACKENDS = (
    "mpc",
    "congested_clique",
    "pregel",
    "central",
    "greedy",
)


@dataclass
class SolverOutput:
    """What an adapter hands back to the façade.

    ``solution`` stays in the solver's natural type (set of vertices, set
    of edges, or edge-weight dict); the façade canonicalizes it per the
    entry's ``solution_kind``.
    """

    solution: Any
    rounds: int = 0
    max_machine_words: int = 0
    total_comm_words: int = 0
    extras: Dict[str, Any] = field(default_factory=dict)


SolverFn = Callable[..., SolverOutput]

# Round-complexity guarantee classes an entry can claim.  The budget
# auditor (repro.verify.budgets) turns these into concrete round budgets:
# "loglog" — the paper's O(log log n) regime; "log" — classic O(log n)
# per-round baselines (Luby, Israeli–Itai); "none" — no bound claimed
# (centralized references, greedy baselines).
ROUND_BOUNDS = ("loglog", "log", "none")


@dataclass(frozen=True)
class SolverEntry:
    """One registered ``(task, backend)`` pair."""

    task: str
    backend: str
    fn: SolverFn
    solution_kind: str
    description: str = ""
    config_factory: Optional[Callable[[], Any]] = None
    weighted: bool = False  # expects a WeightedGraph input
    priority: int = 0  # higher wins the "auto" backend resolution
    # Declared resource guarantees, audited by repro.verify against the
    # paper's bounds.  ``rounds_constant`` is the hidden constant of the
    # O(.) for this implementation (empirical, with headroom; see
    # VERIFICATION.md for how the defaults were calibrated).
    rounds_bound: str = "none"
    rounds_constant: float = 1.0
    # Whether the adapter runs on the MPC substrate and so accepts the
    # ``executor=`` (see repro.dist) and ``governor=`` (see repro.govern)
    # kwargs.  The façade rejects executor requests for other entries and
    # silently ignores governance requests on them — central/greedy
    # backends have no budget to govern, and a sweep over backends must
    # not fail on them.
    mpc_substrate: bool = False


class UnknownSolverError(KeyError):
    """Raised for an unregistered task or ``(task, backend)`` pair."""


class SolverRegistry:
    """Mapping of ``(task, backend)`` pairs to solver adapters."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str], SolverEntry] = {}

    def register(
        self,
        task: str,
        backend: str,
        *,
        solution_kind: str,
        description: str = "",
        config_factory: Optional[Callable[[], Any]] = None,
        weighted: bool = False,
        priority: int = 0,
        rounds_bound: str = "none",
        rounds_constant: float = 1.0,
        mpc_substrate: bool = False,
    ) -> Callable[[SolverFn], SolverFn]:
        """Decorator registering ``fn`` for ``(task, backend)``.

        Re-registering a pair raises — two adapters silently shadowing each
        other is exactly the wiring bug the registry exists to prevent.
        """
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}; known tasks: {TASKS}")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; known backends: {BACKENDS}"
            )
        if rounds_bound not in ROUND_BOUNDS:
            raise ValueError(
                f"unknown rounds_bound {rounds_bound!r}; known: {ROUND_BOUNDS}"
            )
        if rounds_constant <= 0:
            raise ValueError(
                f"rounds_constant must be positive, got {rounds_constant}"
            )

        def wrap(fn: SolverFn) -> SolverFn:
            key = (task, backend)
            if key in self._entries:
                raise ValueError(f"{key} is already registered")
            self._entries[key] = SolverEntry(
                task=task,
                backend=backend,
                fn=fn,
                solution_kind=solution_kind,
                description=description,
                config_factory=config_factory,
                weighted=weighted,
                priority=priority,
                rounds_bound=rounds_bound,
                rounds_constant=rounds_constant,
                mpc_substrate=mpc_substrate,
            )
            return fn

        return wrap

    def get(self, task: str, backend: str) -> SolverEntry:
        """The entry for an exact ``(task, backend)`` pair."""
        entry = self._entries.get((task, backend))
        if entry is None:
            available = ", ".join(self.backends(task)) or "none"
            raise UnknownSolverError(
                f"no solver registered for task={task!r} backend={backend!r} "
                f"(available backends for {task!r}: {available})"
            )
        return entry

    def resolve(self, task: str, backend: str = "auto") -> SolverEntry:
        """The entry for ``backend``, or the highest-priority one on "auto"."""
        if task not in {t for t, _ in self._entries}:
            raise UnknownSolverError(
                f"no solvers registered for task {task!r}; "
                f"known tasks: {sorted({t for t, _ in self._entries})}"
            )
        if backend != "auto":
            return self.get(task, backend)
        candidates = [
            entry for (t, _), entry in self._entries.items() if t == task
        ]
        return max(candidates, key=lambda entry: (entry.priority, entry.backend))

    def tasks(self) -> List[str]:
        """Registered tasks, in canonical order."""
        present = {t for t, _ in self._entries}
        return [task for task in TASKS if task in present]

    def backends(self, task: str) -> List[str]:
        """Backends registered for ``task``, in canonical order."""
        present = {b for t, b in self._entries if t == task}
        return [backend for backend in BACKENDS if backend in present]

    def pairs(self) -> List[Tuple[str, str]]:
        """Every registered ``(task, backend)`` pair, canonically ordered."""
        return [
            (task, backend)
            for task in self.tasks()
            for backend in self.backends(task)
        ]

    def entries(self) -> List[SolverEntry]:
        """Every registered entry, canonically ordered."""
        return [self.get(task, backend) for task, backend in self.pairs()]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pair: Tuple[str, str]) -> bool:
        return pair in self._entries


# The global registry the façade dispatches through; populated by
# repro.api.adapters at package import.
registry = SolverRegistry()
