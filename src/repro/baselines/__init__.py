"""Baseline and exact algorithms the paper compares against or builds on.

* Luby's MIS [Lub86] — the classic O(log n)-round baseline.
* Greedy sequential maximal matching — the folklore 2-approximation.
* Israeli–Itai maximal matching [II86] — O(log n)-round parallel baseline.
* LMSV11 filtering maximal matching — the O(log n)-round MPC baseline at
  Θ(n) memory (and the paper's own Section 4.4.5 subroutine).
* Blossom — exact maximum matching on general graphs.
* Brute force — exact MIS / vertex cover / weighted matching on tiny
  graphs, anchoring approximation-ratio tests.
"""

from repro.baselines.luby import LubyResult, luby_mis
from repro.baselines.greedy import greedy_maximal_matching
from repro.baselines.israeli_itai import IsraeliItaiResult, israeli_itai_matching
from repro.baselines.filtering import FilteringResult, filtering_maximal_matching
from repro.baselines.blossom import maximum_matching as blossom_maximum_matching
from repro.baselines.exact import (
    brute_force_maximum_weight_matching,
    brute_force_minimum_vertex_cover,
    exact_maximum_independent_set,
)

__all__ = [
    "LubyResult",
    "luby_mis",
    "greedy_maximal_matching",
    "IsraeliItaiResult",
    "israeli_itai_matching",
    "FilteringResult",
    "filtering_maximal_matching",
    "blossom_maximum_matching",
    "brute_force_maximum_weight_matching",
    "brute_force_minimum_vertex_cover",
    "exact_maximum_independent_set",
]
