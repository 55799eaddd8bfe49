"""Ad-slot allocation via bipartite matching.

Scenario: advertisers on one side, ad slots on the other, an edge where an
advertiser is eligible for a slot.  Maximize the number of filled slots.
This is the canonical matching workload the MPC literature motivates: the
eligibility graph is huge, no single machine holds it, and round count is
the cost that matters.

Compares the paper's (2+ε) pipeline and its (1+ε) refinement (Cor 1.3)
against the exact optimum from the Blossom baseline (a maximum matching
on any graph, so on this bipartite one too).

Run:  python examples/ad_allocation_matching.py
"""

from repro import random_bipartite_graph, mpc_maximum_matching, one_plus_eps_matching
from repro.baselines.blossom import maximum_matching
from repro.graph.properties import is_matching


def main() -> None:
    advertisers, slots = 400, 400
    eligibility = random_bipartite_graph(advertisers, slots, 0.02, seed=21)
    print(
        f"Eligibility graph: {advertisers} advertisers x {slots} slots, "
        f"{eligibility.num_edges} eligible pairs"
    )

    optimum = maximum_matching(eligibility)
    print(f"\nExact optimum (Blossom):        {len(optimum)} slots fillable")

    base = mpc_maximum_matching(eligibility, seed=21)
    assert is_matching(eligibility, base.matching)
    print(
        f"(2+eps) pipeline (Thm 1.2):    {len(base.matching)} slots filled "
        f"in {base.rounds} MPC rounds "
        f"({len(base.matching)/len(optimum):.1%} of optimum)"
    )

    refined = one_plus_eps_matching(eligibility, epsilon=0.25, seed=21)
    assert is_matching(eligibility, refined.matching)
    print(
        f"(1+eps) refinement (Cor 1.3):  {len(refined.matching)} slots filled "
        f"after {refined.sweeps} augmentation sweeps "
        f"({len(refined.matching)/len(optimum):.1%} of optimum)"
    )


if __name__ == "__main__":
    main()
