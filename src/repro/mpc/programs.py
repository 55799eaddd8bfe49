"""Classic distributed algorithms as vertex programs.

Message-passing realizations of Luby's MIS and a maximal matching process,
expressed over :class:`~repro.mpc.engine.PregelEngine`.  They compute the
same objects as the direct implementations in :mod:`repro.baselines` —
the test suite cross-checks invariants and round shapes — while exercising
the engine's message accounting on real workloads.

Luby's algorithm as a vertex program uses a 2-supersteps-per-round
protocol:

* **propose** — every live vertex draws its round value and sends it to
  its neighbors;
* **resolve** — a vertex beaten by no live neighbor joins the MIS and
  notifies its neighbors, which die; survivors repeat.

(The algorithmic rounds therefore cost exactly 2 engine supersteps, i.e.
2 measured MPC rounds — the constant the direct implementation charges.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

import numpy as np

from repro.graph.csr import CSRGraph, GraphView, gather_rows, sorted_unique
from repro.graph.graph import Edge, canonical_edge
from repro.mpc.engine import BatchSuperstep, PregelEngine
from repro.utils.rng import SeedLike

_PHASE_PROPOSE = 0
_PHASE_RESOLVE = 1

# Vertex lifecycle statuses, array-encoded.
_S_LIVE = 0
_S_IN_SET = 1
_S_DEAD = 2

# Message kinds (the engine only accounts volume; kinds are program-level).
_MSG_DRAW = 0
_MSG_JOINED = 1
_MSG_PROPOSE = 2
_MSG_ACCEPT = 3
_MSG_DEAD = 4


def _segment_min_draws(
    csr: CSRGraph, sender_mask: np.ndarray, draw: np.ndarray
) -> np.ndarray:
    """Per-vertex minimum of ``draw`` over neighbors inside ``sender_mask``.

    One ``minimum.reduceat`` pass over the CSR slots; rows with no
    in-mask neighbor read ``+inf``.
    """
    n = csr.num_vertices
    indptr = csr.indptr
    slots = csr.indices
    result = np.full(n, np.inf)
    if not len(slots):
        return result
    values = np.where(sender_mask[slots], draw[slots], np.inf)
    starts = indptr[:-1]
    # reduceat cannot express empty segments; reduce over the non-empty
    # rows only (consecutive non-empty starts bound exactly one row's
    # slots, because empty rows contribute no slots in between).
    nonempty = starts < indptr[1:]
    result[nonempty] = np.minimum.reduceat(values, starts[nonempty])
    return result


@dataclass
class DistributedMISResult:
    """Outcome of the Luby vertex program."""

    mis: Set[int]
    supersteps: int
    rounds: int
    max_machine_message_words: int
    total_message_words: int = 0


class LubyBatchProgram:
    """Luby's MIS as a batched vertex program (see module docstring).

    Runs the 2-superstep propose/resolve protocol one whole superstep at
    a time: the propose kernel draws for every live vertex in one
    counter-keyed pass and queues one draw message per incident edge; the
    resolve kernel decides every vertex with one segment-min over the CSR
    slots.  ``tests/test_backend_parity.py`` keeps a per-vertex reference
    of the same protocol on :meth:`PregelEngine.run` and checks that
    solution, supersteps, rounds and words are equal.
    """

    def initialize(self, graph: CSRGraph) -> None:
        n = graph.num_vertices
        self.csr = graph
        self.status = np.zeros(n, dtype=np.int8)
        self.draw = np.zeros(n, dtype=np.float64)
        self.proposers = np.empty(0, dtype=np.int64)
        self.last_winners = np.empty(0, dtype=np.int64)

    def compute_batch(self, step: BatchSuperstep) -> None:
        csr = self.csr
        active = step.active
        statuses = self.status[active]
        if step.superstep % 2 == _PHASE_PROPOSE:
            # Mail-woken in-set/dead vertices halt again immediately.
            step.halt(active[statuses != _S_LIVE])
            live = active[statuses == _S_LIVE]
            if self.last_winners.size:
                # A neighbor joined the set last resolve step: die.
                joined = np.zeros(csr.num_vertices, dtype=bool)
                joined[csr.neighbors_bulk(self.last_winners)] = True
                hit = joined[live]
                dying = live[hit]
                self.status[dying] = _S_DEAD
                step.halt(dying)
                live = live[~hit]
                self.last_winners = np.empty(0, dtype=np.int64)
            self.draw[live] = step.random(live)
            self.proposers = live
            step.send(csr.neighbors_bulk(live), kind=_MSG_DRAW)
        else:
            step.halt(active[statuses != _S_LIVE])
            live = active[statuses == _S_LIVE]
            winners = self._winners(live)
            self.status[winners] = _S_IN_SET
            step.halt(winners)
            self.last_winners = winners
            if winners.size:
                step.send(csr.neighbors_bulk(winners), kind=_MSG_JOINED)

    def _winners(self, live: np.ndarray) -> np.ndarray:
        """Vertices whose ``(draw, id)`` beats every proposing neighbor's."""
        csr = self.csr
        sender = np.zeros(csr.num_vertices, dtype=bool)
        sender[self.proposers] = True
        best = _segment_min_draws(csr, sender, self.draw)
        mine = self.draw[live]
        neighborhood_best = best[live]
        wins = mine < neighborhood_best
        # Exact (draw, id) lexicographic ties — measure-zero, but the
        # protocol compares (draw, id) pairs, so resolve them by id.
        for where in np.flatnonzero(mine == neighborhood_best).tolist():
            v = int(live[where])
            row = csr.neighbors(v)
            tied = row[sender[row] & (self.draw[row] == mine[where])]
            wins[where] = v < int(tied.min())
        return live[wins]


def luby_vertex_program(
    graph: GraphView,
    seed: SeedLike = None,
    words_per_machine: Optional[int] = None,
) -> DistributedMISResult:
    """Luby's MIS as a message-passing vertex program (:class:`LubyBatchProgram`).

    ``graph`` is a ``Graph``, ``CSRGraph`` or ``MMapCSRGraph``; the
    engine reads it as one CSR.
    """
    engine = PregelEngine(graph, words_per_machine=words_per_machine, seed=seed)
    program = LubyBatchProgram()
    outcome = engine.run_batch(program)
    degrees = program.csr.degrees()
    mis = set(
        np.flatnonzero((program.status == _S_IN_SET) | (degrees == 0)).tolist()
    )
    return DistributedMISResult(
        mis=mis,
        supersteps=outcome.supersteps,
        rounds=outcome.rounds,
        max_machine_message_words=outcome.max_machine_message_words,
        total_message_words=outcome.total_message_words,
    )


@dataclass
class DistributedMatchingResult:
    """Outcome of the proposal-matching vertex program."""

    matching: Set[Edge]
    supersteps: int
    rounds: int
    max_machine_message_words: int = 0
    total_message_words: int = 0


class MatchingBatchProgram:
    """The [II86]-flavor propose/accept handshake as a batched program.

    Three kernels per algorithmic round, one per superstep:

    * **propose** — apply last round's death notices to the shared
      live-view (a vertex only ever leaves its neighbors' views by
      announcing, so one global mask is exact), rebuild the filtered
      live-view adjacency in one pass, silently retire vertices with no
      live neighbor, and draw once per live vertex — role *and* target
      derive from the same ``(v, superstep)`` draw.
    * **accept** — group proposals by target with one ``minimum.at``; each
      accepting acceptor records its mate and queues one acceptance.  (All
      proposals come from live, never-announced neighbors, so no liveness
      filter is needed.)
    * **finalize** — matched proposers record their mates; every newly
      matched vertex notifies its live-view except the mate and halts.

    ``tests/test_backend_parity.py`` keeps a per-vertex reference of the
    protocol and checks that matching, supersteps, rounds and words are
    equal.
    """

    def initialize(self, graph: CSRGraph) -> None:
        n = graph.num_vertices
        self.csr = graph
        self.status = np.zeros(n, dtype=np.int8)
        self.mate = np.full(n, -1, dtype=np.int64)
        self.announced = np.zeros(n, dtype=bool)
        self.pending_announced = np.empty(0, dtype=np.int64)
        self.proposers = np.empty(0, dtype=np.int64)
        self.targets = np.empty(0, dtype=np.int64)
        self.round_live = np.empty(0, dtype=np.int64)
        self.chosen = np.full(n, -1, dtype=np.int64)
        self.fdst = np.empty(0, dtype=np.int64)
        self.findptr = np.zeros(n + 1, dtype=np.int64)

    # -- per-phase kernels ---------------------------------------------------

    def _propose(self, step: BatchSuperstep) -> None:
        csr = self.csr
        n = csr.num_vertices
        if self.pending_announced.size:
            self.announced[self.pending_announced] = True
            self.pending_announced = np.empty(0, dtype=np.int64)
        active = step.active
        statuses = self.status[active]
        step.halt(active[statuses == _S_DEAD])
        live = active[statuses == _S_LIVE]
        # Filtered live-view adjacency: every live vertex's view is its
        # neighbors minus the announced dead (one pass over the slots).
        in_view = ~self.announced[csr.indices]
        self.fdst = csr.indices[in_view]
        counts = np.bincount(csr.src[in_view], minlength=n)
        np.cumsum(counts, out=self.findptr[1:])
        live_counts = counts[live]
        retiring = (self.mate[live] >= 0) | (live_counts == 0)
        dying = live[retiring]
        self.status[dying] = _S_DEAD
        step.halt(dying)
        live = live[~retiring]
        live_counts = live_counts[~retiring]
        self.round_live = live
        draws = step.random(live)
        is_proposer = draws < 0.5
        proposers = live[is_proposer]
        # The same draw picks the target: given r < 1/2, 2r is uniform on
        # [0, 1), so position floor(2r * deg) of the ascending live-view
        # row is a uniform live neighbor (clamped against float round-up).
        degrees = live_counts[is_proposer]
        pick = np.minimum(
            (2.0 * draws[is_proposer] * degrees).astype(np.int64), degrees - 1
        )
        self.proposers = proposers
        self.targets = self.fdst[self.findptr[proposers] + pick]
        self.chosen.fill(-1)
        step.send(self.targets, kind=_MSG_PROPOSE, ival=proposers)

    def _accept(self, step: BatchSuperstep) -> None:
        active = step.active
        step.halt(active[self.status[active] == _S_DEAD])
        if not self.proposers.size:
            return
        n = self.csr.num_vertices
        smallest = np.full(n, n, dtype=np.int64)
        np.minimum.at(smallest, self.targets, self.proposers)
        acceptors = sorted_unique(self.targets)
        # Only acceptors act on proposals; proposers ignore incoming ones.
        proposer_mask = np.zeros(n, dtype=bool)
        proposer_mask[self.proposers] = True
        acceptors = acceptors[~proposer_mask[acceptors]]
        chosen = smallest[acceptors]
        self.chosen[acceptors] = chosen
        self.mate[acceptors] = chosen
        step.send(chosen, kind=_MSG_ACCEPT, ival=acceptors)

    def _finalize(self, step: BatchSuperstep) -> None:
        active = step.active
        step.halt(active[self.status[active] == _S_DEAD])
        proposers = self.proposers
        if proposers.size:
            accepted = self.chosen[self.targets] == proposers
            matched = proposers[accepted]
            self.mate[matched] = self.targets[accepted]
        live = self.round_live
        dying = live[self.mate[live] >= 0]
        if dying.size:
            # Death notices go to the whole live-view except the mate.
            counts = self.findptr[dying + 1] - self.findptr[dying]
            senders = np.repeat(dying, counts)
            slots = gather_rows(self.fdst, self.findptr, dying)
            step.send(slots[slots != self.mate[senders]], kind=_MSG_DEAD)
        self.status[dying] = _S_DEAD
        step.halt(dying)
        self.pending_announced = dying

    def compute_batch(self, step: BatchSuperstep) -> None:
        phase = step.superstep % 3
        if phase == 0:
            self._propose(step)
        elif phase == 1:
            self._accept(step)
        else:
            self._finalize(step)


def matching_vertex_program(
    graph: GraphView,
    seed: SeedLike = None,
    words_per_machine: Optional[int] = None,
) -> DistributedMatchingResult:
    """Maximal matching by a randomized propose/accept handshake ([II86]
    flavor), run as the kernels of :class:`MatchingBatchProgram`.

    Per algorithmic round (3 supersteps):

    * **propose** — every live vertex flips a coin: *proposers* send a
      proposal to one uniformly random live neighbor; *acceptors* wait.
      (The random role split prevents a vertex from matching twice in one
      round.)
    * **accept** — an acceptor receiving proposals picks the smallest
      proposer, records it as its mate, and sends an acceptance.
    * **finalize** — a proposer receiving an acceptance records the mate;
      both endpoints notify their neighborhoods that they left the graph.

    Every acceptor with at least one proposing neighbor matches, which is
    the constant-progress engine behind the O(log n)-round bound.
    """
    engine = PregelEngine(graph, words_per_machine=words_per_machine, seed=seed)
    program = MatchingBatchProgram()
    outcome = engine.run_batch(program)
    mate = program.mate
    matched = np.flatnonzero(mate >= 0)
    matching: Set[Edge] = {
        canonical_edge(int(v), int(mate[v]))
        for v in matched.tolist()
        if mate[mate[v]] == v
    }
    return DistributedMatchingResult(
        matching=matching,
        supersteps=outcome.supersteps,
        rounds=outcome.rounds,
        max_machine_message_words=outcome.max_machine_message_words,
        total_message_words=outcome.total_message_words,
    )
