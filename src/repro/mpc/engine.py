"""A vertex-centric (Pregel-style) execution engine on the MPC substrate.

The frameworks the paper abstracts (Section 1, MapReduce/Hadoop/Spark/
Dryad) are programmed through bulk-synchronous vertex programs: per
superstep, every active vertex processes its inbox, updates local state,
and sends messages along edges.  This engine runs such programs on an
:class:`~repro.mpc.cluster.MPCCluster`, so that

* one superstep costs exactly one MPC round (charged via the cluster);
* per-machine message volume is validated against the word budget —
  a program whose communication exceeds ``O(S)`` per machine fails loudly;
* vertex placement follows the same i.i.d. partitioning the paper's
  algorithms use.

Every random choice is counter-keyed (:mod:`repro.utils.counter_rng`):
the draw of vertex ``v`` at superstep ``s`` is ``uniform01(key, v, s)``,
so the per-vertex and batched APIs read the same value bit for bit, and
the owner of ``v`` is one ``integers`` draw under a second derived key.

:mod:`repro.baselines.luby` and friends implement the classic per-round
algorithms directly; :mod:`repro.mpc.programs` re-implements them as
vertex programs over this engine, giving an independent, genuinely
message-passing realization that the test suite cross-checks against the
direct versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, GraphView, as_csr
from repro.mpc.cluster import Message, MPCCluster
from repro.mpc.spec import ClusterSpec
from repro.utils import counter_rng
from repro.utils.rng import SeedLike, make_rng

# Word cost of one vertex-to-vertex payload (destination id + one value).
WORDS_PER_VERTEX_MESSAGE = 2


@dataclass
class VertexContext:
    """Per-vertex view handed to a vertex program at every superstep.

    Programs mutate :attr:`state`, call :meth:`send_to` /
    :meth:`send_to_neighbors`, and :meth:`vote_to_halt` when done.  A
    halted vertex is reactivated automatically by an incoming message.
    """

    vertex: int
    superstep: int
    neighbors: Tuple[int, ...]
    state: Dict[str, Any]
    draw_key: int
    _outbox: List[Tuple[int, Any]] = field(default_factory=list)
    _halted: bool = False

    def send_to(self, destination: int, payload: Any) -> None:
        """Queue one message for ``destination`` (delivered next superstep)."""
        self._outbox.append((destination, payload))

    def send_to_neighbors(self, payload: Any) -> None:
        """Queue the same message to every neighbor."""
        for u in self.neighbors:
            self._outbox.append((u, payload))

    def vote_to_halt(self) -> None:
        """Mark this vertex inactive until a message arrives."""
        self._halted = True

    def random(self) -> float:
        """A uniform draw that is a pure function of (seed, vertex, step)."""
        return float(
            counter_rng.uniform01(self.draw_key, [self.vertex], self.superstep)[0]
        )


ComputeFn = Callable[[VertexContext, List[Any]], None]


@dataclass
class EngineResult:
    """Outcome of a vertex-program run."""

    states: Dict[int, Dict[str, Any]]
    supersteps: int
    rounds: int
    max_machine_message_words: int
    total_message_words: int = 0


class BatchSuperstep:
    """One superstep's batched view, handed to ``compute_batch``.

    The per-vertex API processes one :class:`VertexContext` at a time; the
    batched API hands the whole superstep over at once: ``active`` is the
    array of vertex ids being computed (live vertices plus mail-woken
    ones), ``graph`` is the topology as an immutable CSR, and the
    program's state lives in whatever arrays the program object owns.
    Incoming messages are the previous superstep's send buffers,
    concatenated (``inbox_dst``/``inbox_kind``/``inbox_ival``); programs
    that derive inboxes from their own state (the usual case — the sender
    set is program state) can ignore them.

    ``send`` queues messages by destination array only: the engine charges
    per-machine volume exactly as the per-vertex path does (one bincount
    over the placement array), so a batched program that emits the same
    message multiset has byte-identical round/word accounting.  ``halt``
    marks vertices that vote to halt this superstep; everything else in
    ``active`` stays (or becomes) live, mirroring ``VertexContext``.
    """

    __slots__ = (
        "superstep",
        "active",
        "graph",
        "inbox_dst",
        "_inbox_kind_parts",
        "_inbox_ival_parts",
        "_inbox_kind",
        "_inbox_ival",
        "_draw_key",
        "_send_dst",
        "_send_kind",
        "_send_ival",
        "_halted",
    )

    def __init__(
        self,
        superstep: int,
        active: np.ndarray,
        graph: CSRGraph,
        inbox_dst: np.ndarray,
        inbox_kind_parts: List[np.ndarray],
        inbox_ival_parts: List[np.ndarray],
        draw_key: int,
    ) -> None:
        self.superstep = superstep
        self.active = active
        self.graph = graph
        self.inbox_dst = inbox_dst
        self._inbox_kind_parts = inbox_kind_parts
        self._inbox_ival_parts = inbox_ival_parts
        self._inbox_kind: Optional[np.ndarray] = None
        self._inbox_ival: Optional[np.ndarray] = None
        self._draw_key = draw_key
        self._send_dst: List[np.ndarray] = []
        self._send_kind: List[np.ndarray] = []
        self._send_ival: List[np.ndarray] = []
        self._halted: List[np.ndarray] = []

    @property
    def inbox_kind(self) -> np.ndarray:
        """Kinds of the incoming messages, aligned with ``inbox_dst``.

        Concatenated lazily: programs that derive inboxes from their own
        state (the usual case) never pay for the full-message-volume pass.
        """
        if self._inbox_kind is None:
            self._inbox_kind = (
                np.concatenate(self._inbox_kind_parts)
                if self._inbox_kind_parts
                else np.empty(0, dtype=np.int64)
            )
        return self._inbox_kind

    @property
    def inbox_ival(self) -> np.ndarray:
        """Integer payloads of the incoming messages, aligned with
        ``inbox_dst`` (lazily concatenated, see :attr:`inbox_kind`)."""
        if self._inbox_ival is None:
            self._inbox_ival = (
                np.concatenate(self._inbox_ival_parts)
                if self._inbox_ival_parts
                else np.empty(0, dtype=np.int64)
            )
        return self._inbox_ival

    def random(self, vertices: np.ndarray) -> np.ndarray:
        """Per-``(vertex, superstep)`` uniform draws, batched.

        Bit-for-bit identical to :meth:`VertexContext.random` for the same
        vertices: both read ``uniform01(key, vertex, superstep)``.
        """
        return counter_rng.uniform01(self._draw_key, vertices, self.superstep)

    def send(self, destinations: np.ndarray, kind: int = 0, ival=None) -> None:
        """Queue one message per entry of ``destinations``."""
        dst = np.asarray(destinations, dtype=np.int64)
        payload = (
            np.zeros(len(dst), dtype=np.int64)
            if ival is None
            else np.asarray(ival, dtype=np.int64)
        )
        if len(payload) != len(dst):
            raise ValueError(
                f"ival length {len(payload)} != destinations length {len(dst)}"
            )
        self._send_dst.append(dst)
        self._send_kind.append(np.full(len(dst), kind, dtype=np.int64))
        self._send_ival.append(payload)

    def halt(self, vertices: np.ndarray) -> None:
        """Mark ``vertices`` as voting to halt this superstep."""
        self._halted.append(np.asarray(vertices, dtype=np.int64))


class BatchVertexProgram(Protocol):
    """What :meth:`PregelEngine.run_batch` drives.

    ``initialize`` receives the CSR topology and allocates whatever state
    arrays the program needs; ``compute_batch`` is called once per
    superstep with a :class:`BatchSuperstep`.
    """

    def initialize(self, graph: CSRGraph) -> None: ...

    def compute_batch(self, step: BatchSuperstep) -> None: ...


@dataclass
class BatchEngineResult:
    """Outcome of a batched vertex-program run (state stays on the program)."""

    supersteps: int
    rounds: int
    max_machine_message_words: int
    total_message_words: int = 0


class PregelEngine:
    """Bulk-synchronous vertex-program executor with MPC accounting.

    ``graph`` is any representation :func:`~repro.graph.csr.as_csr`
    accepts; the engine keeps the one CSR and both APIs read it.
    """

    def __init__(
        self,
        graph: GraphView,
        words_per_machine: Optional[int] = None,
        num_machines: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        self._csr = as_csr(graph)
        spec = ClusterSpec.from_graph(self._csr, machines="sqrt")
        self._words = words_per_machine if words_per_machine else spec.words_per_machine
        machines = num_machines if num_machines else spec.num_machines
        self._cluster = MPCCluster(machines, self._words)
        material = make_rng(seed).getrandbits(64)
        self._draw_key = counter_rng.derive_key(material, "pregel-draws")
        self._owner = counter_rng.integers(
            counter_rng.derive_key(material, "pregel-owner"),
            np.arange(self._csr.num_vertices, dtype=np.int64),
            0,
            machines,
        )
        self._num_machines = machines

    @property
    def cluster(self) -> MPCCluster:
        """The underlying cluster (round counter, memory stats)."""
        return self._cluster

    def _charge_superstep_volume(
        self, destinations: np.ndarray, superstep: int
    ) -> int:
        """Charge one communication superstep for messages to ``destinations``.

        The single accounting path shared by :meth:`run` and
        :meth:`run_batch`: per-machine volume is one bincount over the
        placement array, validated by the cluster exchange.  Returns the
        largest per-machine word volume of this superstep.
        """
        machine_words: Dict[int, int] = {}
        if destinations.size:
            volume = np.bincount(
                self._owner[destinations], minlength=self._num_machines
            ) * WORDS_PER_VERTEX_MESSAGE
            machine_words = {
                machine: int(words)
                for machine, words in enumerate(volume.tolist())
                if words
            }
        outboxes = {
            machine: [Message(destination=machine, words=words, payload=None)]
            for machine, words in machine_words.items()
        }
        self._cluster.exchange(outboxes, context=f"pregel superstep {superstep}")
        return max(machine_words.values(), default=0)

    def run_batch(
        self, program: BatchVertexProgram, max_supersteps: int = 10_000
    ) -> BatchEngineResult:
        """Execute a batched vertex program until every vertex halts.

        The superstep loop mirrors :meth:`run` exactly — same activation
        rule (live ∪ mail), same per-machine volume accounting through the
        cluster, same quiescence/raise semantics — so a batched program
        that emits the per-vertex program's message multiset produces
        byte-identical supersteps, rounds, and word counts.
        """
        csr = self._csr
        n = csr.num_vertices
        program.initialize(csr)
        live = np.ones(n, dtype=bool)
        mail = np.zeros(n, dtype=bool)
        empty_i = np.empty(0, dtype=np.int64)
        inbox_dst = empty_i
        inbox_kind_parts: List[np.ndarray] = []
        inbox_ival_parts: List[np.ndarray] = []

        superstep = 0
        max_words = 0
        while True:
            if superstep >= max_supersteps:
                raise RuntimeError(
                    f"vertex program did not quiesce within {max_supersteps} supersteps"
                )
            active_mask = live | mail
            active = np.flatnonzero(active_mask)
            if active.size == 0:
                break
            step = BatchSuperstep(
                superstep, active, csr, inbox_dst, inbox_kind_parts,
                inbox_ival_parts, self._draw_key,
            )
            program.compute_batch(step)
            live[active] = True
            if step._halted:
                live[np.concatenate(step._halted)] = False
            destinations = (
                np.concatenate(step._send_dst) if step._send_dst else empty_i
            )
            max_words = max(
                max_words,
                self._charge_superstep_volume(destinations, superstep),
            )
            mail = np.zeros(n, dtype=bool)
            if destinations.size:
                mail[destinations] = True
            inbox_dst = destinations
            inbox_kind_parts = step._send_kind
            inbox_ival_parts = step._send_ival
            superstep += 1

        return BatchEngineResult(
            supersteps=superstep,
            rounds=self._cluster.rounds,
            max_machine_message_words=max_words,
            total_message_words=self._cluster.total_comm_words,
        )

    def run(
        self,
        compute: ComputeFn,
        max_supersteps: int = 10_000,
        initial_state: Optional[Callable[[int], Dict[str, Any]]] = None,
    ) -> EngineResult:
        """Execute ``compute`` until every vertex halts with no mail.

        ``initial_state`` builds each vertex's starting state dict
        (default: empty).  Raises ``RuntimeError`` at ``max_supersteps`` —
        a vertex program that never quiesces is a bug, not a long run.
        """
        n = self._csr.num_vertices
        states: Dict[int, Dict[str, Any]] = {
            v: (initial_state(v) if initial_state else {}) for v in range(n)
        }
        inboxes: Dict[int, List[Any]] = {}
        indptr = self._csr.indptr.tolist()
        indices = self._csr.indices.tolist()
        # CSR rows are ascending, so each tuple is sorted(neighbors).
        neighbor_cache: List[Tuple[int, ...]] = [
            tuple(indices[indptr[v] : indptr[v + 1]]) for v in range(n)
        ]
        # Non-halted vertices, maintained incrementally: a full vertex
        # scan per superstep made late supersteps (few live vertices,
        # large n) cost O(n) instead of O(active).
        live: set = set(range(n))

        superstep = 0
        max_words = 0
        while True:
            if superstep >= max_supersteps:
                raise RuntimeError(
                    f"vertex program did not quiesce within {max_supersteps} supersteps"
                )
            # A halted vertex is reactivated by pending mail.
            active = sorted(live.union(inboxes))
            if not active:
                break
            destinations: List[int] = []
            payloads: List[Any] = []
            for v in active:
                context = VertexContext(
                    vertex=v,
                    superstep=superstep,
                    neighbors=neighbor_cache[v],
                    state=states[v],
                    draw_key=self._draw_key,
                )
                compute(context, inboxes.get(v, []))
                if context._halted:
                    live.discard(v)
                else:
                    live.add(v)
                for destination, payload in context._outbox:
                    destinations.append(destination)
                    payloads.append(payload)
            # Batched delivery: group the whole superstep's outbox by
            # destination (one stable sort); volume accounting is the same
            # shared bincount-over-placement path run_batch uses.
            pending: Dict[int, List[Any]] = {}
            dest_array = np.fromiter(
                destinations, dtype=np.int64, count=len(destinations)
            )
            if destinations:
                order = np.argsort(dest_array, kind="stable")
                sorted_dest = dest_array[order]
                unique_dest, starts = np.unique(sorted_dest, return_index=True)
                bounds = np.append(starts, len(sorted_dest))
                order_list = order.tolist()
                for which, destination in enumerate(unique_dest.tolist()):
                    pending[destination] = [
                        payloads[i]
                        for i in order_list[bounds[which] : bounds[which + 1]]
                    ]
            # Charge the communication superstep and validate volumes.
            max_words = max(
                max_words,
                self._charge_superstep_volume(dest_array, superstep),
            )
            inboxes = pending
            superstep += 1

        return EngineResult(
            states=states,
            supersteps=superstep,
            rounds=self._cluster.rounds,
            max_machine_message_words=max_words,
            total_message_words=self._cluster.total_comm_words,
        )
