"""The phase-structured distributed executor behind ``solve(executor=...)``.

:class:`DistExecutor` is what the MPC solvers see: sessions of shared
arrays, scatter/gather of machine tasks, per-iteration broadcast steps
with a driver-side allreduce, and per-phase wall-clock accounting — the
driver shape of the reference cluster harness (SNIPPETS.md Snippet 1:
allreduce the active counts, barrier per phase, gather at the root),
with the transport abstraction underneath choosing where the work runs.

Every MPC solver runs its machine phases through this class.  The
transport only decides *where* the kernels run: in the driver process
(:class:`~repro.dist.transport.LocalTransport`, which is what
``executor=None`` and ``executor="local"`` use) or on worker processes
(``executor="parallel"``).  The kernels and the driver-side merge are the
same either way, so outputs are byte-identical across transports and
worker counts, and the parity suite enforces it.

Executors are reusable across ``solve`` calls: the scaling harness builds
one per worker count and amortizes pool startup over every repeat.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.dist.errors import DistExecutionError
from repro.dist.transport import LocalTransport, MultiprocessTransport, Transport

#: Executor names accepted by the façade.
EXECUTOR_KINDS = ("local", "parallel")

_DEFAULT_WORKERS = 2


class DistExecutor:
    """Phase-structured driver over a :class:`Transport`."""

    def __init__(self, transport: Transport, kind: Optional[str] = None) -> None:
        self._transport = transport
        self.kind = kind or type(transport).__name__
        self._session_counter = 0
        self._phase_walls: Dict[str, Dict[str, float]] = {}
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def workers(self) -> int:
        """Worker count of the underlying transport."""
        return self._transport.workers

    @property
    def transport(self) -> Transport:
        """The underlying transport (tests and tools introspect it)."""
        return self._transport

    def close(self) -> None:
        """Tear down the transport (idempotent)."""
        self._closed = True
        self._transport.close()

    def __enter__(self) -> "DistExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- sessions -----------------------------------------------------------

    def open_session(self, hint: str, arrays: Dict[str, Any]) -> str:
        """Install ``arrays`` on every worker; returns the session key."""
        self._session_counter += 1
        key = f"{hint}-{self._session_counter}"
        self._transport.install(key, arrays)
        return key

    def close_session(self, key: str) -> None:
        """Drop a session (worker state and shared segments released)."""
        if not self._closed:
            self._transport.drop(key)

    # -- work distribution --------------------------------------------------

    def partition(self, n: int) -> List[Tuple[int, int]]:
        """Contiguous ``[lo, hi)`` vertex ranges, one per worker.

        Balanced to within one vertex.  The solvers' machine phases
        are range-invariant (the parity suite runs several worker
        counts), so this split only affects load balance, not outputs.
        """
        workers = self.workers
        base, extra = divmod(n, workers)
        bounds = []
        lo = 0
        for worker_id in range(workers):
            hi = lo + base + (1 if worker_id < extra else 0)
            bounds.append((lo, hi))
            lo = hi
        return bounds

    def map_tasks(
        self,
        kernel: str,
        tasks: Sequence[Any],
        shared: Optional[Dict[str, Any]] = None,
        phase: str = "map",
    ) -> List[Any]:
        """Scatter ``tasks`` over the workers, barrier, gather in order.

        Tasks are chunked contiguously; results come back flattened in
        task order regardless of which worker ran each one, so callers
        merge them the same way for every worker count.
        """
        chunks = self._chunk(tasks)
        payloads = [{"tasks": chunk, "shared": shared or {}} for chunk in chunks]
        per_worker = self._timed_step(kernel, payloads, phase)
        results: List[Any] = []
        for chunk_results in per_worker:
            results.extend(chunk_results)
        if len(results) != len(tasks):
            raise DistExecutionError(
                f"kernel {kernel!r} returned {len(results)} results "
                f"for {len(tasks)} tasks"
            )
        return results

    def scatter_step(
        self, kernel: str, payloads: Sequence[Any], phase: str = "scatter"
    ) -> List[Any]:
        """One barrier step with an explicit per-worker payload each."""
        return self._timed_step(kernel, payloads, phase)

    def broadcast_step(
        self, kernel: str, payload: Any, phase: str = "step"
    ) -> List[Any]:
        """One barrier step with the same payload on every worker.

        Combined with a driver-side reduction of the returned values this
        is the harness's allreduce: every worker contributes its local
        count, the driver folds, and the folded value gates the next
        round for everyone.
        """
        return self._timed_step(kernel, [payload] * self.workers, phase)

    # -- metrics ------------------------------------------------------------

    @property
    def recovery_log(self):
        """The supervision layer's :class:`~repro.dist.faults.RecoveryLog`.

        ``None`` unless the transport is a
        :class:`~repro.dist.faults.SupervisedTransport` (i.e. a fault
        policy or plan was requested).
        """
        return getattr(self._transport, "recovery_log", None)

    def reset_metrics(self) -> None:
        """Clear per-phase wall accounting (the façade calls this per run)."""
        self._phase_walls = {}
        log = self.recovery_log
        if log is not None:
            log.clear()

    def phase_walls(self) -> List[Dict[str, Any]]:
        """Wall clock per phase label: ``[{phase, wall_s, steps}, ...]``."""
        return [
            {"phase": label, "wall_s": entry["wall_s"], "steps": int(entry["steps"])}
            for label, entry in self._phase_walls.items()
        ]

    # -- internals ----------------------------------------------------------

    def _timed_step(
        self, kernel: str, payloads: Sequence[Any], phase: str
    ) -> List[Any]:
        started = time.perf_counter()
        try:
            return self._transport.step(kernel, payloads)
        finally:
            entry = self._phase_walls.setdefault(
                phase, {"wall_s": 0.0, "steps": 0}
            )
            entry["wall_s"] += time.perf_counter() - started
            entry["steps"] += 1

    def _chunk(self, tasks: Sequence[Any]) -> List[List[Any]]:
        bounds = self.partition(len(tasks))
        return [list(tasks[lo:hi]) for lo, hi in bounds]


ExecutorLike = Union[str, DistExecutor, None]


def in_process(executor: Optional[DistExecutor]) -> DistExecutor:
    """``executor``, or one in-process worker when it is ``None``.

    What an MPC solver calls once per solve, so ``executor=None`` runs
    the same kernels as every other executor, inline in the driver over
    ``LocalTransport(1)``.
    """
    if executor is None:
        return DistExecutor(LocalTransport(1), kind="local")
    return executor


def _coerce_policy(fault_policy: Any) -> Optional["FaultPolicy"]:
    from repro.dist.faults import FaultPolicy

    if fault_policy is None:
        return None
    if isinstance(fault_policy, FaultPolicy):
        return fault_policy
    if fault_policy is True:
        return FaultPolicy()
    if isinstance(fault_policy, dict):
        return FaultPolicy(**fault_policy)
    raise TypeError(
        f"fault_policy must be None, True, a FaultPolicy, or a dict of "
        f"its fields; got {type(fault_policy).__name__}"
    )


def _coerce_plan(fault_plan: Any) -> Optional["FaultPlan"]:
    from repro.dist.faults import FaultPlan

    if fault_plan is None:
        return None
    if isinstance(fault_plan, FaultPlan):
        return fault_plan
    if isinstance(fault_plan, dict):
        return FaultPlan.from_dict(fault_plan)
    raise TypeError(
        f"fault_plan must be None, a FaultPlan, or its dict form; got "
        f"{type(fault_plan).__name__}"
    )


def resolve_executor(
    executor: ExecutorLike,
    workers: Optional[int] = None,
    fault_policy: Any = None,
    fault_plan: Any = None,
) -> Tuple[Optional[DistExecutor], bool]:
    """Normalize the façade's ``executor=`` argument.

    Returns ``(executor_or_None, owned)`` — ``owned`` tells the caller
    whether it created (and must close) the executor.  Accepted values:
    ``None``, a reusable :class:`DistExecutor` instance, or one of
    ``"local"`` / ``"parallel"``.  ``None`` stays ``None``: the solver
    then builds its own in-process executor (:func:`in_process`).

    ``fault_policy`` / ``fault_plan`` opt the ``"parallel"`` executor
    into the supervised path (:mod:`repro.dist.faults`): the policy sets
    retry/respawn/degradation budgets, the plan injects deterministic
    faults underneath the supervision (the chaos-test configuration).  A
    plan without a policy gets the default :class:`FaultPolicy`.  Both
    are meaningless for in-process executors and for an already-built
    ``DistExecutor`` (whose transport stack is fixed), so those
    combinations are rejected.
    """
    policy = _coerce_policy(fault_policy)
    plan = _coerce_plan(fault_plan)
    supervised = policy is not None or plan is not None
    if executor is None:
        if workers is not None:
            raise ValueError("workers= requires an executor= to apply to")
        if supervised:
            raise ValueError(
                "fault_policy/fault_plan require executor='parallel'"
            )
        return None, False
    if isinstance(executor, DistExecutor):
        if workers is not None and workers != executor.workers:
            raise ValueError(
                f"workers={workers} conflicts with the provided executor's "
                f"{executor.workers} workers"
            )
        if supervised:
            raise ValueError(
                "fault_policy/fault_plan cannot rewrap an existing "
                "DistExecutor; build it with executor='parallel' instead"
            )
        return executor, False
    if not isinstance(executor, str):
        raise TypeError(
            f"executor must be None, a DistExecutor, or one of "
            f"{EXECUTOR_KINDS}; got {type(executor).__name__}"
        )
    if supervised and executor != "parallel":
        raise ValueError(
            f"fault_policy/fault_plan require executor='parallel', "
            f"got executor={executor!r}"
        )
    if workers is None:
        workers = _DEFAULT_WORKERS
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if executor == "local":
        return DistExecutor(LocalTransport(workers), kind="local"), True
    if executor == "parallel":
        if supervised:
            from repro.dist.faults import (
                ChaosTransport,
                FaultPolicy,
                SupervisedTransport,
            )

            policy = policy or FaultPolicy()
            transport: Transport = MultiprocessTransport(
                workers, step_timeout_s=policy.step_timeout_s
            )
            if plan is not None:
                transport = ChaosTransport(transport, plan)
            transport = SupervisedTransport(transport, policy)
            return DistExecutor(transport, kind="parallel"), True
        return (
            DistExecutor(MultiprocessTransport(workers), kind="parallel"),
            True,
        )
    raise ValueError(
        f"unknown executor {executor!r}; expected one of {EXECUTOR_KINDS}"
    )
