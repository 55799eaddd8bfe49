"""The MPC cluster: machines, supersteps, and round accounting.

Communication happens through :meth:`MPCCluster.exchange`: every machine
submits an outbox of ``(destination, words, payload)`` messages, the
cluster validates that no outbox and no resulting inbox exceeds the word
budget (both directions are bounded by local memory in the MPC model,
Section 1.1.1 of the paper), delivers, and advances the round counter.

Algorithms that use *standard techniques* the paper cites as O(1)-round
black boxes (sorted load balancing of [GSZ11], aggregation trees) call
:meth:`charge_rounds` with a reason string.  Every primitive that spends
a round (:meth:`exchange`, :meth:`ship_to_machine`, :meth:`broadcast`)
goes through :meth:`charge_rounds` too, so it is the one choke point where
the round counter moves: a test that wraps it sees every ``(count,
reason)`` charge of a run.  The 3-round sample sort that backs
the [GSZ11] charge is a test-side reference (``tests/reference/sort.py``):
no solver runs it, and the suite checks on this cluster that it sorts in
3 metered rounds within the word budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.mpc.errors import MemoryExceededError, ProtocolError
from repro.mpc.machine import Machine


@dataclass(frozen=True)
class Message:
    """One point-to-point message: destination machine, word cost, payload."""

    destination: int
    words: int
    payload: Any


class MPCCluster:
    """A synchronous cluster of :class:`Machine` objects.

    Parameters
    ----------
    num_machines:
        Number of machines ``m``.
    words_per_machine:
        Memory budget ``S`` in words.  For the paper's regime this is
        ``Θ(n)``; callers size it as ``memory_factor * n``.
    """

    def __init__(self, num_machines: int, words_per_machine: int) -> None:
        if num_machines <= 0:
            raise ValueError(f"num_machines must be positive, got {num_machines}")
        self._machines = [
            Machine(machine_id, words_per_machine)
            for machine_id in range(num_machines)
        ]
        self._words_per_machine = words_per_machine
        self._rounds = 0
        self._total_comm_words = 0
        self._peak_round_words = 0  # largest inbox or broadcast
        self._governor = None

    # -- accessors ----------------------------------------------------------

    @property
    def num_machines(self) -> int:
        """Number of machines."""
        return len(self._machines)

    @property
    def words_per_machine(self) -> int:
        """Per-machine word budget ``S``."""
        return self._words_per_machine

    @property
    def rounds(self) -> int:
        """Total MPC rounds consumed so far."""
        return self._rounds

    @property
    def total_comm_words(self) -> int:
        """Total words shipped through the cluster so far (all machines).

        Every :meth:`exchange` message, :meth:`ship_to_machine` bulk
        object, and :meth:`broadcast` payload is summed here, so budget
        auditors can check the run's aggregate communication volume
        alongside the per-machine peaks.
        """
        return self._total_comm_words

    def machine(self, machine_id: int) -> Machine:
        """The machine with id ``machine_id``."""
        if not 0 <= machine_id < len(self._machines):
            raise ProtocolError(
                f"machine id {machine_id} out of range [0, {len(self._machines)})"
            )
        return self._machines[machine_id]

    def machines(self) -> List[Machine]:
        """All machines."""
        return list(self._machines)

    def peak_words(self) -> int:
        """Hottest single-machine load seen so far.

        The largest of any machine's peak :meth:`stored
        <repro.mpc.machine.Machine.store>` residency, any :meth:`exchange`
        receiver's inbox, and any :meth:`broadcast` payload — the loads a
        machine must hold within one round, whether or not it stores them.
        """
        return max(
            self._peak_round_words,
            max(m.peak_words for m in self._machines),
        )

    @property
    def governor(self):
        """The attached :class:`repro.govern.Governor`, if any."""
        return self._governor

    def attach_governor(self, governor) -> None:
        """Wire soft-watermark overload signals to ``governor``.

        Sets every machine's ``soft_limit_words`` to the governor's soft
        budget and routes store-time overload callbacks to it.  Detach
        with ``attach_governor(None)``.
        """
        self._governor = governor
        soft = governor.soft_words if governor is not None else None
        callback = governor.record_watermark if governor is not None else None
        for machine in self._machines:
            machine.soft_limit_words = soft
            machine.on_overload = (
                None
                if callback is None
                else lambda _mid, used, cap, ctx, _cb=callback: _cb(
                    ctx, used, cap
                )
            )

    # -- round accounting -----------------------------------------------------

    def charge_rounds(self, count: int, reason: str) -> None:
        """Consume ``count`` rounds — the only place the counter moves.

        Callers charge the cited O(1)-round primitives; every
        communication method below charges its one round here too.
        """
        if count < 0:
            raise ValueError(f"round count must be >= 0, got {count}")
        self._rounds += count

    # -- communication ---------------------------------------------------------

    def exchange(
        self, outboxes: Dict[int, List[Message]], context: str = "exchange"
    ) -> Dict[int, List[Message]]:
        """Run one communication superstep.

        ``outboxes`` maps sender machine id to its message list.  Validates
        that each sender's outbox and each receiver's inbox fit in machine
        memory, advances the round counter by 1, and returns the inboxes.
        """
        inbox_words: Dict[int, int] = {}
        inboxes: Dict[int, List[Message]] = {}
        for sender, messages in outboxes.items():
            self.machine(sender)  # validates the id
            out_words = sum(msg.words for msg in messages)
            if out_words > self._words_per_machine:
                raise MemoryExceededError(
                    sender, out_words, self._words_per_machine, f"{context}: outbox"
                )
            for msg in messages:
                self.machine(msg.destination)
                inbox_words[msg.destination] = (
                    inbox_words.get(msg.destination, 0) + msg.words
                )
                inboxes.setdefault(msg.destination, []).append(msg)
        for receiver, words in inbox_words.items():
            if words > self._words_per_machine:
                raise MemoryExceededError(
                    receiver, words, self._words_per_machine, f"{context}: inbox"
                )
        self._total_comm_words += sum(inbox_words.values())
        if inbox_words:
            self._peak_round_words = max(
                self._peak_round_words, max(inbox_words.values())
            )
        self.charge_rounds(1, context)
        if self._governor is not None and inbox_words:
            # Post-delivery observation: per-receiver volumes feed the
            # peak-hold estimator so the *next* phase is predicted with
            # this phase's imbalance in hand.
            self._governor.observe_loads(inbox_words.values(), context)
        return inboxes

    def ship_to_machine(
        self,
        destination: int,
        key: str,
        value: Any,
        words: int,
        context: str = "ship",
    ) -> None:
        """Deliver one bulk object to ``destination`` in one round.

        Models the common "send the induced subgraph to one machine" step:
        validates the object fits, stores it, and charges one round.
        """
        machine = self.machine(destination)
        machine.store(key, value, words, context=context)
        self._total_comm_words += words
        self.charge_rounds(1, context)

    def fits_leader(self, words: int, governor=None) -> bool:
        """Whether one unchunked :meth:`ship_to_machine` of ``words`` fits
        machine 0 next to what it already stores.

        The one rule every leader ship decides by.  Under a ``governor``
        the soft watermark caps the ship too, so a governed ship that
        fits never trips it.
        """
        if governor is not None and words > governor.soft_words:
            return False
        leader = self.machine(0)
        return leader.used_words + words <= leader.capacity_words

    def broadcast(self, words: int, context: str = "broadcast") -> None:
        """Broadcast ``words`` of shared state from one machine to all.

        Validates the payload fits in every machine's memory and charges one
        round (machine-to-machine broadcast is one round in MPC as long as
        the payload fits; larger payloads must be split by the caller).
        """
        if words > self._words_per_machine:
            raise MemoryExceededError(
                0, words, self._words_per_machine, f"{context}: broadcast payload"
            )
        if self._governor is not None and words > self._governor.soft_words:
            # A broadcast that fits the hard cap but crosses the soft
            # watermark is pressure worth recording (callers going through
            # the governor's chunked broadcast never land here).
            self._governor.record_watermark(context, words, self._words_per_machine)
        # One copy lands on every other machine.
        self._total_comm_words += words * max(0, self.num_machines - 1)
        self._peak_round_words = max(self._peak_round_words, words)
        self.charge_rounds(1, context)

    def release_all(self) -> None:
        """Clear every machine's store (end of a phase)."""
        for machine in self._machines:
            machine.clear()

    def __repr__(self) -> str:
        return (
            f"MPCCluster(machines={self.num_machines}, "
            f"S={self._words_per_machine} words, rounds={self._rounds})"
        )
