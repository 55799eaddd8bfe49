"""The CONGESTED-CLIQUE network model.

Players are the integers ``0..n-1`` (one per graph vertex, the standard
setting of Section 1.1.2).  Communication happens in synchronous rounds;
per round, each ordered pair of players may exchange one message of
``O(log n)`` bits — i.e. a constant number of vertex ids or one float.
The model tracks rounds and validates the per-pair bandwidth constraint.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np

from repro.mpc.errors import ProtocolError

# One CONGESTED-CLIQUE message carries O(log n) bits — enough for a constant
# number of vertex ids.  We fix that constant here.
IDS_PER_MESSAGE = 2


class CongestedClique:
    """A clique network of ``n`` players with per-round bandwidth accounting."""

    def __init__(self, num_players: int) -> None:
        if num_players <= 0:
            raise ValueError(f"num_players must be positive, got {num_players}")
        self._n = num_players
        self._rounds = 0

    @property
    def num_players(self) -> int:
        """Number of players ``n``."""
        return self._n

    @property
    def rounds(self) -> int:
        """Rounds consumed so far."""
        return self._rounds

    def _check_player(self, player: int) -> None:
        if not 0 <= player < self._n:
            raise ProtocolError(f"player {player} out of range [0, {self._n})")

    def charge_rounds(self, count: int, reason: str) -> None:
        """Consume ``count`` rounds — the only place the counter moves.

        Callers charge the cited constant-round primitives; every round
        method below charges its one round here too.
        """
        if count < 0:
            raise ValueError(f"round count must be >= 0, got {count}")
        self._rounds += count

    def round_of_messages(
        self,
        messages: Iterable[Tuple[int, int, int]],
        context: str = "point-to-point",
    ) -> None:
        """Execute one round given ``(sender, receiver, num_ids)`` triples.

        Validates that no ordered pair carries more than
        :data:`IDS_PER_MESSAGE` ids and that senders/receivers are valid,
        then charges one round.
        """
        pair_load: Dict[Tuple[int, int], int] = {}
        for sender, receiver, num_ids in messages:
            self._check_player(sender)
            self._check_player(receiver)
            key = (sender, receiver)
            pair_load[key] = pair_load.get(key, 0) + num_ids
            if pair_load[key] > IDS_PER_MESSAGE:
                raise ProtocolError(
                    f"pair {key} exceeds per-round bandwidth "
                    f"({pair_load[key]} ids > {IDS_PER_MESSAGE}) during {context}"
                )
        self.charge_rounds(1, context)

    def round_of_messages_array(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        num_ids: int = 1,
        context: str = "point-to-point",
    ) -> None:
        """Array form of :meth:`round_of_messages`: one round of uniform-size
        messages given flat endpoint arrays.

        Every message carries ``num_ids`` ids; per-pair loads are validated
        with one ``np.unique`` pass over packed ``(sender, receiver)`` keys
        instead of a per-message dict update.  Accepts and rejects exactly
        the same rounds as the scalar method.
        """
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        if len(senders) != len(receivers):
            raise ValueError("senders and receivers must have equal length")
        n = self._n
        if senders.size:
            for endpoint in (senders, receivers):
                bad = (endpoint < 0) | (endpoint >= n)
                if bad.any():
                    player = int(endpoint[np.argmax(bad)])
                    raise ProtocolError(f"player {player} out of range [0, {n})")
            keys, counts = np.unique(senders * np.int64(n) + receivers, return_counts=True)
            load = counts * int(num_ids)
            over = load > IDS_PER_MESSAGE
            if over.any():
                which = int(np.argmax(over))
                pair = (int(keys[which]) // n, int(keys[which]) % n)
                raise ProtocolError(
                    f"pair {pair} exceeds per-round bandwidth "
                    f"({int(load[which])} ids > {IDS_PER_MESSAGE}) during {context}"
                )
        self.charge_rounds(1, context)

    def broadcast_round(self, context: str = "broadcast") -> None:
        """One round in which some players send the same id(s) to everyone.

        A broadcast of one message per player per round is trivially within
        the clique's bandwidth (each ordered pair carries one message).
        """
        self.charge_rounds(1, context)

    def __repr__(self) -> str:
        return f"CongestedClique(n={self._n}, rounds={self._rounds})"
