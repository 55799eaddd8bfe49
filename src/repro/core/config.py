"""Tunable constants for the paper's algorithms.

The paper states its schedules with asymptotic constants (``log^10 n`` rank
floors, ``I = log m / (10 log 5)`` iterations per phase) that only bite for
astronomically large ``n`` — at every feasible input size ``log^10 n > n``.
A faithful executable reproduction therefore exposes the *shape* of each
schedule with the constants as configuration, defaulted so the claimed
regimes are actually exercised at benchmark sizes.  Every divergence from
the paper's literal constant is documented on the corresponding field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import require, require_epsilon


@dataclass(frozen=True)
class MISConfig:
    """Parameters for the MIS algorithms (Section 3).

    Attributes
    ----------
    alpha:
        Rank-prefix exponent; iteration ``i`` processes ranks up to
        ``n / Δ^(α^i)``.  The paper fixes ``α = 3/4``.
    sparse_degree_exponent:
        The paper switches to the sparsified algorithm once the maximum
        degree is at most ``log^10 n``; with real inputs that threshold
        exceeds ``n``, which would skip the prefix phases entirely.  We use
        ``(log2 n)^sparse_degree_exponent`` (default exponent 2) so both
        regimes run at benchmark sizes.
    memory_factor:
        Machine memory is ``memory_factor * n`` words (the ``O~(n)``
        regime).
    luby_rounds_factor:
        The sparsified finish simulates ``luby_rounds_factor * log2(m+2)``
        LOCAL rounds via graph exponentiation before shipping the leftover
        graph to the leader.
    sparse_strategy:
        LOCAL process used by the sparsified finish: ``"luby"`` ([Lub86])
        or ``"ghaffari"`` (the desire-level process of [Gha16], closer to
        what [Gha17] compresses).

    The rank permutation and every finish draw are keyed draws of the
    counter generator (:mod:`repro.utils.counter_rng`), pure functions of
    ``(seed, vertex, round)``; there is no randomness mode to choose.
    """

    alpha: float = 0.75
    sparse_degree_exponent: float = 2.0
    memory_factor: float = 8.0
    luby_rounds_factor: float = 2.0
    sparse_strategy: str = "luby"

    def __post_init__(self) -> None:
        require(0.0 < self.alpha < 1.0, f"alpha must be in (0,1), got {self.alpha}")
        require(
            self.sparse_degree_exponent > 0,
            "sparse_degree_exponent must be positive",
        )
        require(self.memory_factor > 0, "memory_factor must be positive")
        require(self.luby_rounds_factor > 0, "luby_rounds_factor must be positive")
        require(
            self.sparse_strategy in ("luby", "ghaffari"),
            f"sparse_strategy must be 'luby' or 'ghaffari', got {self.sparse_strategy!r}",
        )

    def sparse_degree_threshold(self, n: int) -> int:
        """Degree below which the sparsified finish takes over."""
        if n < 4:
            return 4
        return max(4, int(math.log2(n) ** self.sparse_degree_exponent))


@dataclass(frozen=True)
class MatchingConfig:
    """Parameters for the matching/vertex-cover algorithms (Section 4).

    Attributes
    ----------
    epsilon:
        The approximation parameter ``ε``; the guarantee is ``2 + O(ε)``.
    iterations_scale:
        Iterations simulated per phase are
        ``max(1, floor(iterations_scale * log2 m))``.  The paper's literal
        ``I = log m / (10 log 5)`` rounds to zero at feasible sizes; any
        ``Θ(log m)`` choice preserves the doubly-exponential degree decay
        ``d ← d^(1-γ)`` of Lemma 4.8, with ``γ`` proportional to the scale.
    degree_floor_exponent:
        The main loop exits once ``d ≤ (log2 n)^degree_floor_exponent``
        (paper: ``log^20 n``, which again exceeds ``n`` in practice).
    memory_factor:
        Machine memory in units of ``n`` words.
    threshold_low / threshold_high:
        The random freezing threshold interval; the paper uses
        ``[1-4ε, 1-2ε]``.

    The thresholds ``T_{v,t}`` and the Line (d) machine assignment are
    keyed draws of the counter generator (:mod:`repro.utils.counter_rng`),
    pure functions of ``(seed, vertex, round)``; there is no randomness
    mode to choose.
    """

    epsilon: float = 0.1
    iterations_scale: float = 2.0
    degree_floor_exponent: float = 2.0
    memory_factor: float = 8.0
    max_direct_iterations: int = 10_000

    def __post_init__(self) -> None:
        require_epsilon(self.epsilon)
        require(self.iterations_scale > 0, "iterations_scale must be positive")
        require(
            self.degree_floor_exponent > 0, "degree_floor_exponent must be positive"
        )
        require(self.memory_factor > 0, "memory_factor must be positive")
        require(self.max_direct_iterations >= 1, "max_direct_iterations must be >= 1")

    @property
    def threshold_low(self) -> float:
        """Lower end of the random freezing interval, ``1 - 4ε``."""
        return 1.0 - 4.0 * self.epsilon

    @property
    def threshold_high(self) -> float:
        """Upper end of the random freezing interval, ``1 - 2ε``."""
        return 1.0 - 2.0 * self.epsilon

    def degree_floor(self, n: int) -> int:
        """The ``d`` value at which direct simulation takes over."""
        if n < 4:
            return 4
        return max(4, int(math.log2(n) ** self.degree_floor_exponent))

    def iterations_per_phase(self, num_machines: int) -> int:
        """Iterations of Central-Rand compressed into one phase."""
        if num_machines < 2:
            return 1
        return max(1, int(self.iterations_scale * math.log2(num_machines)))
