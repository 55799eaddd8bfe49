"""The paper's primary contributions.

* :mod:`repro.core.greedy_mis` / :mod:`repro.core.mis_mpc` — Theorem 1.1:
  MIS in ``O(log log Δ)`` MPC rounds via rank-prefix simulation of
  randomized greedy.
* :mod:`repro.core.central` / :mod:`repro.core.matching_mpc` — Lemma 4.1 /
  Lemma 4.2: fractional matching and vertex cover in ``O(log log n)``
  rounds.
* :mod:`repro.core.rounding` / :mod:`repro.core.integral` — Lemma 5.1 /
  Theorem 1.2: integral ``(2+ε)``-approximate matching.
* :mod:`repro.core.augmenting` — Corollary 1.3: ``(1+ε)`` matching.
* :mod:`repro.core.weighted_matching` — Corollary 1.4: weighted matching.
"""

from repro.core.config import MISConfig, MatchingConfig
from repro.core.greedy_mis import greedy_mis, randomized_greedy_mis
from repro.core.mis_mpc import MISResult, mis_mpc
from repro.core.sparsified_mis import sparsified_mis
from repro.core.central import CentralResult, central_fractional_matching
from repro.core.fractional import FractionalMatching
from repro.core.matching_mpc import MatchingMPCResult, mpc_fractional_matching
from repro.core.rounding import round_fractional_matching
from repro.core.integral import IntegralMatchingResult, mpc_maximum_matching
from repro.core.vertex_cover import VertexCoverResult, mpc_vertex_cover
from repro.core.augmenting import one_plus_eps_matching
from repro.core.weighted_matching import WeightedMatchingResult, mpc_weighted_matching

__all__ = [
    "MISConfig",
    "MatchingConfig",
    "greedy_mis",
    "randomized_greedy_mis",
    "MISResult",
    "mis_mpc",
    "sparsified_mis",
    "CentralResult",
    "central_fractional_matching",
    "FractionalMatching",
    "MatchingMPCResult",
    "mpc_fractional_matching",
    "round_fractional_matching",
    "IntegralMatchingResult",
    "mpc_maximum_matching",
    "VertexCoverResult",
    "mpc_vertex_cover",
    "one_plus_eps_matching",
    "WeightedMatchingResult",
    "mpc_weighted_matching",
]
