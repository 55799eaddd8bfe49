"""A single MPC machine: a word-budgeted local store."""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.mpc.errors import MemoryExceededError


class Machine:
    """One machine of an MPC cluster.

    A machine is a named bag of word-costed objects.  The cluster charges
    loads through :meth:`store` / :meth:`release`; the machine tracks its
    peak residency so experiments can report the true memory footprint
    (the quantity Lemma 3.1 / Lemma 4.7 bound).
    """

    __slots__ = (
        "machine_id",
        "capacity_words",
        "soft_limit_words",
        "on_overload",
        "_used_words",
        "_peak_words",
        "_store",
    )

    def __init__(self, machine_id: int, capacity_words: int) -> None:
        if capacity_words <= 0:
            raise ValueError(f"capacity_words must be positive, got {capacity_words}")
        self.machine_id = machine_id
        self.capacity_words = capacity_words
        # Soft watermark (repro.govern): a residency line *below* the hard
        # cap.  Crossing it never raises — it fires ``on_overload`` so a
        # governor can see pressure while there is still headroom to act.
        self.soft_limit_words: Optional[int] = None
        self.on_overload: Optional[Callable[[int, int, int, str], None]] = None
        self._used_words = 0
        self._peak_words = 0
        self._store: Dict[str, Any] = {}

    @property
    def used_words(self) -> int:
        """Words currently resident."""
        return self._used_words

    @property
    def peak_words(self) -> int:
        """Maximum words ever resident on this machine."""
        return self._peak_words

    def store(self, key: str, value: Any, words: int, context: str = "") -> None:
        """Place ``value`` (costing ``words``) under ``key``.

        Replacing an existing key first releases its words.  Raises
        :class:`MemoryExceededError` if the budget would be exceeded.
        """
        if words < 0:
            raise ValueError(f"words must be >= 0, got {words}")
        if key in self._store:
            self.release(key)
        if self._used_words + words > self.capacity_words:
            raise MemoryExceededError(
                self.machine_id, self._used_words + words, self.capacity_words, context
            )
        self._store[key] = (value, words)
        self._used_words += words
        self._peak_words = max(self._peak_words, self._used_words)
        if (
            self.soft_limit_words is not None
            and self._used_words > self.soft_limit_words
            and self.on_overload is not None
        ):
            self.on_overload(
                self.machine_id, self._used_words, self.capacity_words, context
            )

    def load(self, key: str) -> Any:
        """Retrieve the value stored under ``key``."""
        return self._store[key][0]

    def has(self, key: str) -> bool:
        """Whether ``key`` is resident."""
        return key in self._store

    def release(self, key: str) -> None:
        """Free the words held by ``key``."""
        _, words = self._store.pop(key)
        self._used_words -= words

    def clear(self) -> None:
        """Free everything (end of a phase)."""
        self._store.clear()
        self._used_words = 0

    def __repr__(self) -> str:
        return (
            f"Machine(id={self.machine_id}, used={self._used_words}/"
            f"{self.capacity_words} words)"
        )
