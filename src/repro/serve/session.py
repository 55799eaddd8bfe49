"""Tenant sessions: one maintained graph per named client, with backpressure.

A :class:`TenantSession` owns one
:class:`~repro.stream.dynamic.DynamicGraph` +
:class:`~repro.stream.maintain.Maintainer` pair (its own task, backend,
seed, and knobs — tenants are fully isolated from each other) plus the
serving machinery around it:

* **ingest queue with epoch batching** — :meth:`offer` enqueues a batch;
  when ingest outruns repair and the queue hits ``max_queue``, the whole
  backlog is coalesced into one equivalent batch
  (:func:`repro.stream.updates.coalesce_batches`) that will be repaired
  as a single epoch.  When even the coalesced backlog carries more than
  ``max_pending_edits`` edits, further batches are **shed** — the caller
  gets an explicit rejection to retry later, never silent loss.
* **idempotent replay** — batches may carry a client sequence number;
  anything at or below the session's cursor is acknowledged as a
  duplicate and skipped, which is what makes "replay the stream from the
  start after a crash" converge instead of double-applying.
* **per-epoch records** — every processed batch appends an
  :class:`~repro.stream.driver.EpochRecord` (with a ``repro.verify``
  certificate when the session was opened with ``verify=True``), so a
  serving session carries the same audit trail a batch stream run does.
* **snapshot/restore** — :meth:`snapshot_payload` /
  :meth:`TenantSession.restore` round-trip the whole session state (see
  :mod:`repro.serve.snapshot` for the durability story).
"""

from __future__ import annotations

import re
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.mpc.errors import MemoryExceededError
from repro.serve.report import TenantReport
from repro.serve.snapshot import SNAPSHOT_SCHEMA_VERSION
from repro.stream.driver import EpochRecord, certify_epoch
from repro.stream.dynamic import DynamicGraph
from repro.stream.maintain import Maintainer, make_maintainer
from repro.stream.updates import EdgeBatch, coalesce_batches

#: Tenant names become snapshot file names, so they must be path-safe.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Queue/backpressure defaults (overridable per service and per session).
DEFAULT_MAX_QUEUE = 64
DEFAULT_MAX_PENDING_EDITS = 100_000

#: Outcomes of :meth:`TenantSession.offer`.
QUEUED = "queued"
COALESCED = "coalesced"
SHED = "shed"
DUPLICATE = "duplicate"


def governance_payload(value: Any) -> Optional[Dict[str, Any]]:
    """JSON-ready form of a governance opt-in (for snapshots/configs)."""
    if value is None or value is False:
        return None
    if value is True:
        return {}
    if isinstance(value, dict):
        return dict(value)
    return value.to_dict()


def validate_tenant_name(name: str) -> str:
    """A tenant name safe to use as a snapshot file stem."""
    if not isinstance(name, str) or not _TENANT_NAME.match(name):
        raise ValueError(
            f"invalid tenant name {name!r}: use 1-64 characters from "
            "[A-Za-z0-9._-], starting with a letter or digit"
        )
    return name


class TenantSession:
    """One tenant's maintained solution, queue, and epoch log."""

    def __init__(
        self,
        name: str,
        task: str,
        graph: Union[Graph, CSRGraph, DynamicGraph],
        *,
        backend: str = "auto",
        seed: Optional[int] = None,
        resolve_fraction: float = 0.25,
        budget: Optional[float] = None,
        governance: Any = None,
        verify: bool = False,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_pending_edits: int = DEFAULT_MAX_PENDING_EDITS,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_pending_edits < 1:
            raise ValueError(
                f"max_pending_edits must be >= 1, got {max_pending_edits}"
            )
        self.name = validate_tenant_name(name)
        self.task = task
        self.backend = backend
        self.seed = seed
        self.budget = budget
        self.governance = governance
        self.verify = bool(verify)
        self.max_queue = int(max_queue)
        self.max_pending_edits = int(max_pending_edits)
        self.maintainer: Maintainer = make_maintainer(
            task,
            graph,
            backend=backend,
            seed=seed,
            resolve_fraction=resolve_fraction,
            budget=budget,
            governance=governance,
        )
        self.records: List[EpochRecord] = []
        self.initial: Dict[str, Any] = {}
        self.processed_seq: Optional[int] = None
        self._accepted_seq: Optional[int] = None
        self._queue: Deque[Tuple[EdgeBatch, Optional[int]]] = deque()
        self.counters: Dict[str, int] = {
            "ingested": 0,
            "coalesced": 0,
            "shed": 0,
            "duplicates": 0,
            "snapshots": 0,
            "restores": 0,
            "budget_breaches": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    def initialize(self) -> Dict[str, Any]:
        """Initial full solve; returns the summary recorded in reports."""
        started = time.perf_counter()
        report = self.maintainer.initialize()
        self.initial = {
            "backend": report.backend,
            "rounds": report.rounds,
            "size": self.maintainer.size(),
            "wall_time_s": time.perf_counter() - started,
        }
        return self.initial

    @property
    def epochs_processed(self) -> int:
        return len(self.records)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def pending_edits(self) -> int:
        return sum(batch.size for batch, _ in self._queue)

    # -- ingestion ----------------------------------------------------------

    def _is_duplicate(self, seq: Optional[int]) -> bool:
        return (
            seq is not None
            and self._accepted_seq is not None
            and seq <= self._accepted_seq
        )

    def offer(
        self, batch: EdgeBatch, seq: Optional[int] = None
    ) -> Tuple[str, int]:
        """Enqueue a batch under backpressure; returns ``(outcome, depth)``.

        Outcomes: :data:`QUEUED` (plain enqueue), :data:`COALESCED` (the
        backlog was folded into one epoch to make room first),
        :data:`SHED` (rejected — backlog at the edit budget; the batch
        was **not** accepted and its ``seq`` not consumed, so a later
        retry succeeds), :data:`DUPLICATE` (``seq`` at or below the
        cursor; acknowledged, nothing enqueued).
        """
        if self._is_duplicate(seq):
            self.counters["duplicates"] += 1
            return DUPLICATE, len(self._queue)
        outcome = QUEUED
        if len(self._queue) >= self.max_queue:
            merged = coalesce_batches([item[0] for item in self._queue])
            merged_seq = self._queue[-1][1]
            self._queue.clear()
            self._queue.append((merged, merged_seq))
            self.counters["coalesced"] += 1
            outcome = COALESCED
        if self.pending_edits + batch.size > self.max_pending_edits:
            self.counters["shed"] += 1
            return SHED, len(self._queue)
        self._queue.append((batch, seq))
        if seq is not None:
            self._accepted_seq = seq
        return outcome, len(self._queue)

    def pop_next(self) -> Optional[Tuple[EdgeBatch, Optional[int]]]:
        """Dequeue the next pending batch (None when the queue is empty)."""
        return self._queue.popleft() if self._queue else None

    # -- epoch processing ----------------------------------------------------

    def process(
        self, batch: EdgeBatch, seq: Optional[int] = None
    ) -> Optional[EpochRecord]:
        """Apply one batch as one epoch; returns its record.

        Returns ``None`` (and counts a duplicate) when ``seq`` is at or
        below the cursor — the replay-idempotence path.

        A :class:`~repro.mpc.errors.MemoryExceededError` from an epoch's
        fallback re-solve does **not** kill the session: the breach is
        recorded as a *failed* epoch record (``verification.ok = False``
        with a ``budget_breach`` check) and counted in
        ``counters["budget_breaches"]``, so operators see it in
        :meth:`status` instead of losing the tenant.  Sessions opened
        with ``governance=`` degrade inside the solver and never land
        here.
        """
        if (
            seq is not None
            and self.processed_seq is not None
            and seq <= self.processed_seq
        ):
            # offer() advanced _accepted_seq when it queued this batch, so
            # dedup here must compare against the *processed* cursor only.
            self.counters["duplicates"] += 1
            return None
        try:
            stats = self.maintainer.step(batch)
        except MemoryExceededError as breach:
            self.counters["budget_breaches"] += 1
            record = EpochRecord(
                stats={
                    "epoch": self.epochs_processed + 1,
                    "action": "breach",
                    "n": self.maintainer.graph.num_vertices,
                    "m": self.maintainer.graph.num_edges,
                },
                verification={
                    "ok": False,
                    "checks": [
                        {
                            "name": "budget_breach",
                            "passed": False,
                            "detail": str(breach),
                        }
                    ],
                },
            )
            self.records.append(record)
            if seq is not None:
                self.processed_seq = seq
                if self._accepted_seq is None or seq > self._accepted_seq:
                    self._accepted_seq = seq
            return record
        verification: Dict[str, Any] = {}
        if self.verify:
            verification = certify_epoch(
                self.task, self.maintainer.graph.snapshot(), self.maintainer
            )
        record = EpochRecord(stats=stats.to_dict(), verification=verification)
        self.records.append(record)
        self.counters["ingested"] += 1
        if seq is not None:
            self.processed_seq = seq
            if self._accepted_seq is None or seq > self._accepted_seq:
                self._accepted_seq = seq
        return record

    def drain(self) -> int:
        """Process every queued batch now; returns epochs processed."""
        processed = 0
        while True:
            item = self.pop_next()
            if item is None:
                return processed
            if self.process(*item) is not None:
                processed += 1

    # -- queries ------------------------------------------------------------

    def quality(self) -> float:
        """The scalar quality the differential band compares (task-specific)."""
        maintainer = self.maintainer
        if self.task == "fractional_matching":
            return float(maintainer.total_weight())  # type: ignore[attr-defined]
        return float(maintainer.size())

    def certificate(self) -> Dict[str, Any]:
        """Certify the *current* maintained solution on demand."""
        return certify_epoch(
            self.task, self.maintainer.graph.snapshot(), self.maintainer
        )

    def status(self) -> Dict[str, Any]:
        return {
            "tenant": self.name,
            "task": self.task,
            "backend": self.backend,
            "n": self.maintainer.graph.num_vertices,
            "m": self.maintainer.graph.num_edges,
            "size": self.maintainer.size(),
            "epochs": self.epochs_processed,
            "queue_depth": self.queue_depth,
            "pending_edits": self.pending_edits,
            "processed_seq": self.processed_seq,
            "budget": self.budget,
            "governed": self.governance is not None and self.governance is not False,
            "counters": dict(self.counters),
        }

    def report(self) -> TenantReport:
        return TenantReport(
            tenant=self.name,
            task=self.task,
            backend=self.backend,
            seed=self.seed,
            n_final=self.maintainer.graph.num_vertices,
            m_final=self.maintainer.graph.num_edges,
            initial=dict(self.initial),
            epochs=list(self.records),
            solution=self.maintainer.solution(),
            counters=dict(self.counters),
            config={
                "resolve_fraction": self.maintainer.resolve_fraction,
                "verify": self.verify,
                "max_queue": self.max_queue,
                "max_pending_edits": self.max_pending_edits,
                "seed": self.seed,
                "budget": self.budget,
                "governance": governance_payload(self.governance),
            },
        )

    # -- persistence --------------------------------------------------------

    def snapshot_payload(self) -> Dict[str, Any]:
        """Everything a byte-identical resume needs, JSON-ready.

        The queue is deliberately *not* persisted: queued batches were
        never acknowledged as processed, and the cursor tells a replaying
        client exactly where to resume.  The graph is captured as the
        compacted CSR's canonical edge array, so the restored CSR is
        array-identical to the live one.
        """
        csr = self.maintainer.graph.compact()
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "tenant": self.name,
            "task": self.task,
            "backend": self.backend,
            "seed": self.seed,
            "config": {
                "resolve_fraction": self.maintainer.resolve_fraction,
                "verify": self.verify,
                "max_queue": self.max_queue,
                "max_pending_edits": self.max_pending_edits,
                "budget": self.budget,
                "governance": governance_payload(self.governance),
            },
            "n": csr.num_vertices,
            "edges": [[int(u), int(v)] for u, v in csr.edge_array()],
            "maintainer": self.maintainer.state_dict(),
            "initial": dict(self.initial),
            "processed_seq": self.processed_seq,
            "records": [record.to_dict() for record in self.records],
            "counters": dict(self.counters),
        }

    @classmethod
    def restore(cls, payload: Dict[str, Any]) -> "TenantSession":
        """Rebuild a session from :meth:`snapshot_payload` output."""
        config = dict(payload.get("config", {}))
        session = cls(
            payload["tenant"],
            payload["task"],
            Graph(
                int(payload["n"]),
                [(int(u), int(v)) for u, v in payload["edges"]],
            ),
            backend=payload.get("backend", "auto"),
            seed=payload.get("seed"),
            resolve_fraction=float(config.get("resolve_fraction", 0.25)),
            budget=config.get("budget"),
            governance=config.get("governance"),
            verify=bool(config.get("verify", False)),
            max_queue=int(config.get("max_queue", DEFAULT_MAX_QUEUE)),
            max_pending_edits=int(
                config.get("max_pending_edits", DEFAULT_MAX_PENDING_EDITS)
            ),
        )
        session.maintainer.load_state(payload["maintainer"])
        session.initial = dict(payload.get("initial", {}))
        session.records = [
            EpochRecord.from_dict(item) for item in payload.get("records", [])
        ]
        session.processed_seq = payload.get("processed_seq")
        session._accepted_seq = session.processed_seq
        session.counters.update(payload.get("counters", {}))
        session.counters["restores"] += 1
        return session
