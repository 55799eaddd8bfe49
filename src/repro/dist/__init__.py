"""``repro.dist`` — execution of the MPC cluster's machine-local work.

The simulated :class:`~repro.mpc.cluster.MPCCluster` stays the model's
source of truth (round charging, word budgets, per-machine memory
audits); this package is the *execution* substrate.  Every MPC solver
runs its machine-local work through it, in process or on real workers:

* :mod:`repro.dist.transport` — the :class:`Transport` protocol with an
  in-process reference (:class:`LocalTransport`) and a persistent
  shared-memory multiprocessing pool (:class:`MultiprocessTransport`);
* :mod:`repro.dist.kernels` — the named worker kernels: the solvers'
  machine-local phase units;
* :mod:`repro.dist.executor` — the phase-structured driver
  (:class:`DistExecutor`) the solvers program against;
* :mod:`repro.dist.faults` — deterministic fault injection
  (:class:`FaultPlan` + :class:`ChaosTransport`) and the supervised
  recovery path (:class:`FaultPolicy` + :class:`SupervisedTransport`
  + :class:`RecoveryLog`): retries with backoff, worker respawn with
  journal replay, graceful degradation to :class:`LocalTransport`;
* :mod:`repro.dist.pool` — shared multiprocessing plumbing (also used by
  :func:`repro.api.batch.solve_many`).

Entry point: ``solve(task, graph, backend="mpc", executor="parallel",
workers=K)`` — outputs and budget audits are byte-identical to
``executor=None`` (one in-process worker) under fixed seeds (see
DISTRIBUTED.md).
"""

from repro.dist.errors import (
    DistCorruptionError,
    DistExecutionError,
    DistTimeoutError,
)
from repro.dist.executor import DistExecutor, resolve_executor
from repro.dist.faults import (
    ChaosTransport,
    FaultPlan,
    FaultPolicy,
    FaultSpec,
    RecoveryLog,
    SupervisedTransport,
)
from repro.dist.transport import LocalTransport, MultiprocessTransport, Transport

__all__ = [
    "ChaosTransport",
    "DistCorruptionError",
    "DistExecutionError",
    "DistExecutor",
    "DistTimeoutError",
    "FaultPlan",
    "FaultPolicy",
    "FaultSpec",
    "LocalTransport",
    "MultiprocessTransport",
    "RecoveryLog",
    "SupervisedTransport",
    "Transport",
    "resolve_executor",
]
