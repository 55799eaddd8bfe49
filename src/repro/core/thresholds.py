"""Per-vertex, per-iteration random freezing thresholds.

Central-Rand (Section 4.3) replaces Central's fixed freezing threshold
``1 - 2ε`` with a fresh uniform draw ``T_{v,t} ∈ [1-4ε, 1-2ε]`` per vertex
and iteration.  The point of the construction (Lemma 4.11) is that the MPC
simulation and the centralized reference consume *the same* thresholds, so
the two processes can be coupled; :class:`ThresholdOracle` makes the
threshold a pure function of ``(seed, v, t)`` to realize that coupling
exactly.
"""

from __future__ import annotations

import numpy as np

from repro.utils import counter_rng
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import require


class ThresholdOracle:
    """Deterministic oracle for the thresholds ``T_{v,t}``.

    ``T_{v,t}`` is ``low + (high - low) · u`` with ``u`` the order-free
    counter draw (:mod:`repro.utils.counter_rng`) for vertex ``v`` in
    round ``t`` under a key derived from ``seed``.  Nothing is consumed,
    so callers may ask for any ``(v, t)`` in any order, on any process,
    and get the same value.
    """

    def __init__(self, low: float, high: float, seed: SeedLike = None) -> None:
        require(low <= high, f"threshold interval empty: [{low}, {high}]")
        self._low = low
        self._high = high
        self._key = counter_rng.derive_key(
            make_rng(seed).getrandbits(64), "central-rand-thresholds"
        )

    @property
    def low(self) -> float:
        """Interval lower end (``1 - 4ε``)."""
        return self._low

    @property
    def high(self) -> float:
        """Interval upper end (``1 - 2ε``)."""
        return self._high

    def threshold(self, vertex: int, iteration: int) -> float:
        """The threshold ``T_{v,t}`` — identical for every caller."""
        return float(self.thresholds_batch([vertex], iteration)[0])

    def crosses(self, vertex: int, iteration: int, estimate: float) -> bool:
        """Whether ``estimate >= T_{v,t}`` — the definition that
        :meth:`crosses_batch` short-circuits."""
        return estimate >= self.threshold(vertex, iteration)

    def thresholds_batch(self, vertices, iteration: int) -> np.ndarray:
        """``[self.threshold(v, iteration) for v in vertices]``, batched."""
        vs = np.asarray(vertices, dtype=np.int64)
        if self._low == self._high:
            return np.full(len(vs), self._low, dtype=np.float64)
        unit = counter_rng.uniform01(self._key, vs, iteration)
        return self._low + (self._high - self._low) * unit

    def crosses_batch(self, vertices, iteration: int, estimates) -> np.ndarray:
        """Whether each ``estimates[i] >= T_{vertices[i], iteration}``.

        ``T_{v,t}`` always lies in ``[low, high]``, so an estimate outside
        the band decides without materializing the draw; only the in-band
        subset goes through :meth:`thresholds_batch`.  Because the
        threshold is a pure function of ``(seed, v, t)``, skipping it
        changes no decision and no other draw.
        """
        vs = np.asarray(vertices, dtype=np.int64)
        est = np.asarray(estimates, dtype=np.float64)
        out = est >= self._high
        in_band = ~out & (est >= self._low)
        if in_band.any():
            idx = np.flatnonzero(in_band)
            drawn = self.thresholds_batch(vs[idx], iteration)
            out[idx] = est[idx] >= drawn
        return out


def fixed_oracle(value: float) -> ThresholdOracle:
    """An oracle that always returns ``value`` (plain Central)."""
    return ThresholdOracle(value, value, seed=0)
