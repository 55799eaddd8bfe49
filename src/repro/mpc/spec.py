"""Cluster sizing: the single home of the memory-factor derivation.

Every MPC algorithm in the library sizes its simulated cluster the same
way — ``S = memory_factor * n`` words per machine (the ``O~(n)`` regime of
Section 1.1.1) with the machine count chosen either so the input fits
(``m = ceil(total_words / S) + 1``, the ``S * m = Θ(N)`` regime) or as
``Θ(√n)`` for the vertex-partitioned algorithms.  Before this module the
derivation was re-implemented in :mod:`repro.core.mis_mpc`,
:mod:`repro.core.matching_mpc`, :mod:`repro.core.integral`,
:mod:`repro.core.weighted_matching`, and :mod:`repro.mpc.engine`;
:class:`ClusterSpec` replaces all of those copies so a sizing change (or a
future sharding/caching layer) happens in exactly one place.

The class lives in the ``mpc`` layer (below ``core``) so algorithm modules
can import it without cycles; :mod:`repro.api` re-exports it as part of the
public façade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict

from repro.mpc.cluster import MPCCluster
from repro.mpc.words import edge_words

# Below this budget a machine cannot hold even a handful of edges plus the
# bookkeeping ids, and the substrate's validation becomes vacuous noise.
MIN_WORDS_PER_MACHINE = 64


def paper_memory_words(
    n: int,
    alpha: float = 1.0,
    memory_factor: float = 8.0,
    min_words: int = MIN_WORDS_PER_MACHINE,
) -> int:
    """Per-machine budget ``S = memory_factor * n^alpha`` words.

    The paper's headline regime is strictly sublinear memory
    (``S = n^alpha`` for a constant ``alpha < 1``, Section 1.1.1); the
    library's algorithms run in the near-linear ``O~(n)`` regime, which is
    ``alpha = 1`` here.  :mod:`repro.verify.budgets` audits measured
    per-machine peaks against this budget, so lowering ``alpha`` tightens
    the conformance assertion toward the paper's sublinear claim.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if memory_factor <= 0:
        raise ValueError(f"memory_factor must be positive, got {memory_factor}")
    return max(min_words, math.ceil(memory_factor * max(0, n) ** alpha))


@dataclass(frozen=True)
class ClusterSpec:
    """A fully-derived cluster shape: machine count and per-machine words.

    Attributes
    ----------
    num_machines:
        Number of machines ``m``.
    words_per_machine:
        Memory budget ``S`` in words per machine.
    memory_factor:
        The factor the spec was derived from (kept for report snapshots).
    """

    num_machines: int
    words_per_machine: int
    memory_factor: float = 0.0

    def __post_init__(self) -> None:
        if self.num_machines <= 0:
            raise ValueError(
                f"num_machines must be positive, got {self.num_machines}"
            )
        if self.words_per_machine <= 0:
            raise ValueError(
                f"words_per_machine must be positive, got {self.words_per_machine}"
            )

    @classmethod
    def from_graph(
        cls,
        graph: Any,
        memory_factor: float = 8.0,
        machines: str = "fit",
        min_words: int = MIN_WORDS_PER_MACHINE,
    ) -> "ClusterSpec":
        """Derive the cluster shape for ``graph``.

        Parameters
        ----------
        graph:
            Anything exposing ``num_vertices`` and ``num_edges`` (a
            :class:`~repro.graph.graph.Graph` or a weighted wrapper).
        memory_factor:
            Per-machine memory in units of ``n`` words.
        machines:
            ``"fit"`` — ``ceil(total_words / S) + 1`` machines so the input
            fits with one spare (the MIS algorithm's regime);
            ``"sqrt"`` — ``√n + 1`` machines (the vertex-partitioned
            matching regime and the Pregel engine default).
        """
        if memory_factor <= 0:
            raise ValueError(f"memory_factor must be positive, got {memory_factor}")
        n = graph.num_vertices
        words = max(int(memory_factor * n), min_words)
        if machines == "fit":
            total_words = edge_words(graph.num_edges) + n
            count = max(2, -(-total_words // words) + 1)
        elif machines == "sqrt":
            count = max(2, math.isqrt(max(1, n)) + 1)
        else:
            raise ValueError(
                f"machines must be 'fit' or 'sqrt', got {machines!r}"
            )
        return cls(
            num_machines=count,
            words_per_machine=words,
            memory_factor=memory_factor,
        )

    def build_cluster(self) -> MPCCluster:
        """Instantiate the :class:`MPCCluster` this spec describes."""
        return MPCCluster(self.num_machines, self.words_per_machine)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready snapshot (stored in :class:`repro.api.RunReport`)."""
        return {
            "num_machines": self.num_machines,
            "words_per_machine": self.words_per_machine,
            "memory_factor": self.memory_factor,
        }
