"""Deterministic fault injection and the supervised recovery layer.

Everything in this module leans on one fact about the distributed
design: every worker-side phase is a *deterministic pure function* of
(the immutable shared-memory session arrays, the step payload, the
worker's accumulated session state), and that session state is itself
the deterministic product of the stateful steps dispatched so far.  The
threshold draws inside the kernels come from
:class:`repro.core.thresholds.ThresholdOracle`, which is a pure function
of ``(seed, vertex, t)`` — not a consumed stream — so re-executing a
phase cannot skew later randomness.  A failed phase can therefore be
re-executed on the same worker, on a respawned worker whose journal was
replayed, or on an in-process :class:`LocalTransport` — and produce the
same bytes every time.  Fault tolerance here is a provable property, and
the chaos conformance suite (tests/test_faults.py) proves it with the
same parity machinery that validates the fault-free path.

Three layers, composing bottom-up:

* :class:`FaultPlan` / :class:`FaultSpec` — a seeded, declarative
  schedule of faults (crash worker W at the Nth dispatch of phase P,
  delay a reply past the deadline, corrupt reply bytes, raise inside the
  kernel).  Serializable (``to_dict``/``from_dict``) so the CLI can take
  plans as JSON; :meth:`FaultPlan.random` derives a reproducible plan
  from a seed.
* :class:`ChaosTransport` — wraps a :class:`MultiprocessTransport` and
  converts the plan into real faults through the transport's injection
  hooks: crashes are ``SIGKILL``, delays defer pipe readability past the
  deadline, corruption flips bytes upstream of the CRC check.  The
  observed failures are indistinguishable from organic ones because they
  travel the same code paths.
* :class:`FaultPolicy` / :class:`SupervisedTransport` /
  :class:`RecoveryLog` — the recovery driver: per-phase outcomes from
  ``step_partial``, bounded retries with exponential backoff, worker
  respawn with journal replay for stateful kernels, and — when the
  budget is gone — mid-solve degradation onto :class:`LocalTransport`,
  continuing the solve in process without losing a byte.  Every
  recovery action lands in the :class:`RecoveryLog`, which the facade
  surfaces as ``RunReport.extras["faults"]``.
"""

from __future__ import annotations

import fnmatch
import random as _random_mod
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.dist.errors import (
    DistCorruptionError,
    DistExecutionError,
    DistTimeoutError,
)
from repro.dist.kernels import is_stateful
from repro.dist.transport import LocalTransport, Transport

#: Fault kinds a :class:`FaultSpec` may carry.
FAULT_KINDS = ("crash", "delay", "corrupt", "kernel_raise")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``kind``
        ``"crash"`` — SIGKILL the worker process before dispatch;
        ``"delay"`` — the worker's reply is unreadable for ``delay_s``
        seconds (longer than the deadline ⇒ a timeout);
        ``"corrupt"`` — flip a byte of the worker's reply upstream of
        the CRC32 check;
        ``"kernel_raise"`` — the kernel raises on that worker (injected
        driver-side *without dispatching*, so session state is never
        touched — the one fault kind that must not risk a real partial
        mutation, because it models a deterministic kernel bug, not a
        machine failure).
    ``worker``
        The worker id the fault targets.
    ``kernel``
        An ``fnmatch`` pattern over kernel names (``"*"`` = any phase,
        ``"matching.direct_*"`` = the direct simulation, one task per
        tail).
    ``step`` / ``times``
        Fire on dispatches ``step .. step+times-1`` of matching phases
        (0-based, counted per spec).  ``times > 1`` models a repeatedly
        failing machine; large ``times`` with a small respawn budget is
        how the conformance matrix forces degradation.
    ``delay_s``
        Delay length for ``kind="delay"``.
    """

    kind: str
    worker: int
    kernel: str = "*"
    step: int = 0
    times: int = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if self.step < 0 or self.times < 1:
            raise ValueError(
                f"need step >= 0 and times >= 1, got step={self.step} "
                f"times={self.times}"
            )
        if self.kind == "delay" and self.delay_s <= 0:
            raise ValueError("delay faults need delay_s > 0")


class FaultPlan:
    """A deterministic schedule of :class:`FaultSpec` entries.

    The plan keeps one dispatch counter per spec (how many steps matching
    that spec's kernel pattern have been *observed*, including the
    supervision layer's retries); a spec fires while its counter is in
    ``[step, step+times)``.  Because retries advance the counters too, a
    ``times=1`` fault does not re-fire on the retry of the step it broke
    — which is exactly how a transient real-world fault behaves.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._seen = [0] * len(self.specs)

    def fire(self, kernel: str) -> List[FaultSpec]:
        """Record one dispatch of ``kernel``; return the specs firing now."""
        firing = []
        for index, spec in enumerate(self.specs):
            if not fnmatch.fnmatchcase(kernel, spec.kernel):
                continue
            seen = self._seen[index]
            self._seen[index] = seen + 1
            if spec.step <= seen < spec.step + spec.times:
                firing.append(spec)
        return firing

    def reset(self) -> None:
        """Rewind all dispatch counters (for reusing one plan across runs)."""
        self._seen = [0] * len(self.specs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "specs": [
                {
                    "kind": spec.kind,
                    "worker": spec.worker,
                    "kernel": spec.kernel,
                    "step": spec.step,
                    "times": spec.times,
                    "delay_s": spec.delay_s,
                }
                for spec in self.specs
            ]
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict) or "specs" not in data:
            raise ValueError("fault plan dict needs a 'specs' list")
        return cls([FaultSpec(**spec) for spec in data["specs"]])

    @classmethod
    def random(
        cls,
        seed: int,
        workers: int,
        faults: int = 3,
        kinds: Sequence[str] = FAULT_KINDS,
        max_step: int = 6,
        delay_s: float = 0.2,
    ) -> "FaultPlan":
        """A reproducible plan: same seed, same faults, same schedule."""
        rng = _random_mod.Random(seed)
        specs = []
        for _ in range(faults):
            kind = rng.choice(list(kinds))
            specs.append(
                FaultSpec(
                    kind=kind,
                    worker=rng.randrange(workers),
                    step=rng.randrange(max_step),
                    delay_s=delay_s if kind == "delay" else 0.0,
                )
            )
        return cls(specs)

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.specs)!r})"


class ChaosTransport(Transport):
    """Inject a :class:`FaultPlan` into a real multiprocess transport.

    Sits between the supervision layer and the
    :class:`~repro.dist.transport.MultiprocessTransport`, turning plan
    entries into real faults at each ``step_partial`` dispatch: crashes
    SIGKILL the target before its payload is sent, delays and corruption
    arm the transport's receive-side injection hooks, and kernel raises
    are synthesized driver-side (the target is *not* dispatched, so its
    session state provably cannot be half-mutated by a fault that models
    a deterministic kernel bug).

    Recovery traffic deliberately bypasses the plan: the supervision
    layer replays journals through :attr:`raw`, because the plan's
    counters schedule faults against the *solve's* phase stream, and
    letting replays consume (or suffer) scheduled faults would make the
    schedule depend on the recovery history.
    """

    def __init__(self, inner: Transport, plan: FaultPlan) -> None:
        for hook in (
            "step_partial",
            "kill_worker",
            "delay_next_receive",
            "corrupt_next_receive",
        ):
            if not hasattr(inner, hook):
                raise TypeError(
                    f"ChaosTransport needs a transport with {hook!r} "
                    f"(e.g. MultiprocessTransport), got {type(inner).__name__}"
                )
        self._inner = inner
        self.plan = plan

    @property
    def raw(self) -> Transport:
        """The wrapped transport, for fault-exempt recovery traffic."""
        return self._inner

    @property
    def workers(self) -> int:
        return self._inner.workers

    def install(self, key: str, arrays) -> None:
        self._inner.install(key, arrays)

    def drop(self, key: str) -> None:
        self._inner.drop(key)

    def close(self) -> None:
        self._inner.close()

    def step(self, kernel: str, payloads: Sequence[Any]) -> List[Any]:
        outcomes = self.step_partial(kernel, payloads)
        return self._inner._failfast_results(kernel, outcomes)

    def step_partial(
        self,
        kernel: str,
        payloads: Sequence[Any],
        only: Optional[Set[int]] = None,
        deadline: Optional[float] = None,
    ) -> Dict[int, Tuple[str, Any]]:
        targets = set(range(self.workers)) if only is None else set(only)
        synthetic: Dict[int, Tuple[str, Any]] = {}
        for spec in self.plan.fire(kernel):
            if spec.worker not in targets:
                continue
            if spec.kind == "crash":
                self._inner.kill_worker(spec.worker)
            elif spec.kind == "delay":
                self._inner.delay_next_receive(spec.worker, spec.delay_s)
            elif spec.kind == "corrupt":
                self._inner.corrupt_next_receive(spec.worker)
            elif spec.kind == "kernel_raise":
                synthetic[spec.worker] = (
                    "kernel_error",
                    f"FaultSpec(kernel_raise): injected kernel failure on "
                    f"worker {spec.worker} during {kernel}",
                )
                targets.discard(spec.worker)
        outcomes = self._inner.step_partial(
            kernel, payloads, only=targets, deadline=deadline
        )
        outcomes.update(synthetic)
        return outcomes

    # Recovery surface forwarded to the wrapped transport verbatim.
    def respawn_worker(self, worker_id: int) -> None:
        self._inner.respawn_worker(worker_id)

    def kill_worker(self, worker_id: int) -> None:
        self._inner.kill_worker(worker_id)

    def delay_next_receive(self, worker_id: int, seconds: float) -> None:
        self._inner.delay_next_receive(worker_id, seconds)

    def corrupt_next_receive(self, worker_id: int) -> None:
        self._inner.corrupt_next_receive(worker_id)

    def _failfast_results(self, kernel, outcomes):
        return self._inner._failfast_results(kernel, outcomes)


@dataclass(frozen=True)
class FaultPolicy:
    """Knobs of the supervised recovery path.

    ``max_retries``
        Re-dispatches of a failed phase after the first attempt (so a
        phase runs at most ``1 + max_retries`` times before the budget
        is exhausted).
    ``max_respawns``
        Total worker respawns across the whole solve.  Death and timeout
        always consume one (the process is gone); kernel errors and
        corruption respawn only for stateful kernels, where a partial
        mutation would make an in-place retry unsound.
    ``step_timeout_s``
        Per-message receive deadline during supervised steps.
    ``backoff_base_s`` / ``backoff_factor`` / ``backoff_max_s``
        Exponential backoff between attempts:
        ``min(base * factor**(attempt-1), max)``.
    ``degrade``
        When the retry or respawn budget runs out: ``True`` re-runs the
        failed phase — and the rest of the solve — on
        :class:`LocalTransport` (byte-identical by determinism);
        ``False`` raises a structured :class:`DistExecutionError`.
    """

    max_retries: int = 2
    max_respawns: int = 3
    step_timeout_s: float = 30.0
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0 or self.max_respawns < 0:
            raise ValueError("retry/respawn budgets must be >= 0")
        if self.step_timeout_s <= 0:
            raise ValueError("step_timeout_s must be > 0")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff times must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Sleep before re-dispatch number ``attempt`` (1-based)."""
        return min(
            self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1),
            self.backoff_max_s,
        )


class RecoveryLog:
    """Everything the supervision layer did to keep the solve alive.

    ``events`` is an append-only list of dicts (``kind`` plus per-kind
    fields: phase, worker, outcome, attempt, latency); :meth:`summary`
    folds it into the shape the facade stores under
    ``RunReport.extras["faults"]``.
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def record(self, kind: str, **fields: Any) -> None:
        self.events.append({"kind": kind, **fields})

    def count(self, kind: str) -> int:
        return sum(1 for event in self.events if event["kind"] == kind)

    @property
    def degraded(self) -> bool:
        return any(event["kind"] == "degrade" for event in self.events)

    def summary(self) -> Dict[str, Any]:
        return {
            "failures": self.count("failure"),
            "retries": self.count("retry"),
            "respawns": self.count("respawn"),
            "degraded": self.degraded,
            "events": [dict(event) for event in self.events],
        }

    def clear(self) -> None:
        self.events = []


class SupervisedTransport(Transport):
    """Retry / respawn / degrade supervision over a multiprocess transport.

    Wraps a transport exposing the per-worker recovery surface
    (``step_partial`` + ``respawn_worker`` — a
    :class:`~repro.dist.transport.MultiprocessTransport`, possibly with a
    :class:`ChaosTransport` in between) and turns its fail-fast ``step``
    into a supervised one:

    1. Dispatch with a per-message deadline; collect per-worker outcomes.
    2. Keep every healthy worker's result — only the failed subset is
       ever re-dispatched.
    3. Before a re-dispatch, repair the failed workers: death and timeout
       always respawn (the process is gone); kernel errors and corruption
       respawn only when the phase kernel is *stateful* (a partial
       mutation would poison an in-place retry), and retry in place
       otherwise.  A respawned worker re-attaches the still-linked
       shared-memory sessions and replays its journal of stateful steps,
       reconstructing its session state byte-identically.
    4. Sleep the policy's exponential backoff, re-dispatch the failed
       subset, repeat within ``max_retries``.
    5. Budget exhausted (or respawn impossible): degrade — tear down the
       worker pool, build a :class:`LocalTransport`, re-install the
       retained session arrays, replay the *full* journal, re-run the
       failed phase, and serve the rest of the solve in-process.  By the
       determinism argument in the module docstring the degraded solve's
       bytes equal the healthy solve's.

    The journal only records *stateful* phases (see
    :func:`repro.dist.kernels.is_stateful`): stateless phases leave no
    worker-resident state, so replaying them would be pure waste.
    """

    def __init__(
        self, inner: Transport, policy: Optional[FaultPolicy] = None
    ) -> None:
        for hook in ("step_partial", "respawn_worker"):
            if not hasattr(inner, hook):
                raise TypeError(
                    f"SupervisedTransport needs a transport with {hook!r} "
                    f"(e.g. MultiprocessTransport), got {type(inner).__name__}"
                )
        self._inner = inner
        self._policy = policy or FaultPolicy()
        self._arrays: Dict[str, Dict[str, Any]] = {}
        # (kernel, payloads, session_key) for every *stateful* completed
        # step, in order — the recipe that rebuilds any worker's state.
        self._journal: List[Tuple[str, List[Any], Optional[str]]] = []
        self._respawns_used = 0
        self.recovery_log = RecoveryLog()
        self._local: Optional[LocalTransport] = None

    @property
    def policy(self) -> FaultPolicy:
        return self._policy

    @property
    def workers(self) -> int:
        return self._inner.workers

    @property
    def degraded(self) -> bool:
        return self._local is not None

    def install(self, key: str, arrays) -> None:
        self._arrays[key] = dict(arrays)
        if self._local is not None:
            self._local.install(key, arrays)
            return
        try:
            self._inner.install(key, arrays)
        except DistExecutionError as error:
            self._degrade(f"install {key!r}", error)

    def drop(self, key: str) -> None:
        self._arrays.pop(key, None)
        self._journal = [
            entry for entry in self._journal if entry[2] != key
        ]
        if self._local is not None:
            self._local.drop(key)
            return
        try:
            self._inner.drop(key)
        except DistExecutionError as error:
            # The session is already gone from the retained state, so
            # degradation simply won't re-install it.
            self._degrade(f"drop {key!r}", error)

    def step(self, kernel: str, payloads: Sequence[Any]) -> List[Any]:
        if self._local is not None:
            return self._local.step(kernel, payloads)
        policy = self._policy
        results: Dict[int, Any] = {}
        pending: Set[int] = set(range(self.workers))
        attempt = 0
        while True:
            attempt += 1
            started = time.monotonic()
            outcomes = self._inner.step_partial(
                kernel,
                payloads,
                only=pending,
                deadline=policy.step_timeout_s,
            )
            elapsed = time.monotonic() - started
            failed: Dict[int, Tuple[str, Any]] = {}
            for worker_id, (kind, info) in outcomes.items():
                if kind == "ok":
                    results[worker_id] = info
                else:
                    failed[worker_id] = (kind, info)
            pending = set(failed)
            if not pending:
                break
            for worker_id in sorted(failed):
                kind, _ = failed[worker_id]
                self.recovery_log.record(
                    "failure",
                    phase=kernel,
                    worker=worker_id,
                    outcome=kind,
                    attempt=attempt,
                    latency_s=round(elapsed, 4),
                )
            if attempt > policy.max_retries:
                return self._exhausted(
                    kernel, payloads, failed, attempt, "retries-exhausted"
                )
            time.sleep(policy.backoff(attempt))
            for worker_id in sorted(failed):
                kind, _ = failed[worker_id]
                if not self._needs_respawn(kind, kernel):
                    continue
                if self._respawns_used >= policy.max_respawns:
                    return self._exhausted(
                        kernel,
                        payloads,
                        failed,
                        attempt,
                        "respawn-budget-exhausted",
                    )
                try:
                    self._respawn_and_replay(worker_id, kernel)
                except DistExecutionError:
                    return self._exhausted(
                        kernel, payloads, failed, attempt, "respawn-failed"
                    )
            self.recovery_log.record(
                "retry",
                phase=kernel,
                attempt=attempt + 1,
                workers=sorted(pending),
            )
        self._journal_step(kernel, payloads)
        return [results[worker_id] for worker_id in range(self.workers)]

    def close(self) -> None:
        if self._local is not None:
            self._local.close()
        self._inner.close()

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _needs_respawn(kind: str, kernel: str) -> bool:
        if kind in ("died", "timeout"):
            return True
        # kernel_error / corrupt: the process is alive.  Retry in place
        # for stateless kernels; for stateful ones the failed attempt may
        # have half-mutated session state, so rebuild from the journal.
        return is_stateful(kernel)

    def _respawn_and_replay(self, worker_id: int, phase: str) -> None:
        self._respawns_used += 1
        base = getattr(self._inner, "raw", self._inner)
        base.respawn_worker(worker_id)
        replayed = 0
        for journal_kernel, journal_payloads, _ in self._journal:
            outcomes = base.step_partial(
                journal_kernel,
                journal_payloads,
                only={worker_id},
                deadline=self._policy.step_timeout_s,
            )
            kind, info = outcomes.get(worker_id, ("died", "no outcome"))
            if kind != "ok":
                raise DistExecutionError(
                    f"journal replay of {journal_kernel} failed on "
                    f"respawned worker {worker_id} ({kind}): {info}",
                    worker_id=worker_id,
                    phase=journal_kernel,
                    recovery="respawn-failed",
                )
            replayed += 1
        self.recovery_log.record(
            "respawn",
            phase=phase,
            worker=worker_id,
            replayed_steps=replayed,
            respawns_used=self._respawns_used,
        )

    def _exhausted(
        self,
        kernel: str,
        payloads: Sequence[Any],
        failed: Dict[int, Tuple[str, Any]],
        attempt: int,
        reason: str,
    ) -> List[Any]:
        if self._policy.degrade:
            self._degrade(kernel, reason)
            return self._local.step(kernel, payloads)
        worker_id = min(failed)
        kind, info = failed[worker_id]
        error_type = {
            "timeout": DistTimeoutError,
            "corrupt": DistCorruptionError,
        }.get(kind, DistExecutionError)
        try:
            self._inner.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        raise error_type(
            f"supervision gave up on {kernel} after {attempt} attempt(s): "
            f"worker {worker_id} kept failing ({kind}: {info}); {reason} "
            f"and degradation is disabled",
            worker_id=worker_id,
            phase=kernel,
            attempts=attempt,
            recovery=reason,
        )

    def _degrade(self, phase: str, detail: Any) -> None:
        """Abandon the worker pool; continue the solve on LocalTransport.

        Re-installs the retained session arrays and replays the full
        stateful-step journal, after which the local workers' session
        state equals the pool's — so re-running the failed phase (and
        every later one) locally yields the same bytes the healthy pool
        would have produced.
        """
        workers = self.workers
        self.recovery_log.record(
            "degrade",
            phase=phase,
            detail=str(detail),
            replayed_steps=len(self._journal),
        )
        try:
            self._inner.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        local = LocalTransport(workers)
        for key, arrays in self._arrays.items():
            local.install(key, arrays)
        for journal_kernel, journal_payloads, _ in self._journal:
            local.step(journal_kernel, journal_payloads)
        self._local = local

    def _journal_step(self, kernel: str, payloads: Sequence[Any]) -> None:
        if not is_stateful(kernel):
            return
        self._journal.append(
            (kernel, list(payloads), self._session_of(payloads))
        )

    @staticmethod
    def _session_of(payloads: Sequence[Any]) -> Optional[str]:
        for payload in payloads:
            if isinstance(payload, dict):
                if "session" in payload:
                    return payload["session"]
                shared = payload.get("shared")
                if isinstance(shared, dict) and "session" in shared:
                    return shared["session"]
        return None
