"""Unit tests for the Lemma 5.1 randomized rounding."""

from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching_mpc import mpc_fractional_matching
from repro.core.rounding import (
    PROPOSAL_DAMPENING,
    RoundingOutcome,
    round_fractional_matching,
    round_fractional_matching_detailed,
)
from repro.graph.generators import complete_graph, gnp_random_graph
from repro.graph.graph import Graph
from repro.graph.properties import is_matching


class TestRounding:
    def test_output_is_always_a_matching(self):
        g = gnp_random_graph(200, 0.08, seed=1)
        fractional = mpc_fractional_matching(g, seed=1)
        candidates = fractional.rounding_candidates(0.1)
        for seed in range(5):
            matching = round_fractional_matching(
                g, fractional.matching.weights, candidates, seed=seed
            )
            assert is_matching(g, matching)

    def test_yield_meets_paper_guarantee(self):
        """Lemma 5.1: matching size >= |C~|/50 (w.h.p.; measured is larger)."""
        g = gnp_random_graph(400, 0.05, seed=2)
        fractional = mpc_fractional_matching(g, seed=2)
        candidates = fractional.rounding_candidates(0.1)
        assert len(candidates) > 50
        matching = round_fractional_matching(
            g, fractional.matching.weights, candidates, seed=3
        )
        assert len(matching) >= len(candidates) / 50

    def test_empty_candidates(self):
        g = complete_graph(4)
        assert round_fractional_matching(g, {(0, 1): 0.5}, set(), seed=1) == set()

    def test_zero_weights_never_proposed(self):
        g = Graph(4, [(0, 1), (2, 3)])
        weights = {(0, 1): 0.0, (2, 3): 0.0}
        outcome = round_fractional_matching_detailed(
            g, weights, {0, 1, 2, 3}, seed=4
        )
        assert outcome.proposals == 0
        assert outcome.matching == set()

    def test_determinism(self):
        g = gnp_random_graph(100, 0.1, seed=5)
        fractional = mpc_fractional_matching(g, seed=5)
        candidates = fractional.rounding_candidates(0.1)
        a = round_fractional_matching(g, fractional.matching.weights, candidates, seed=6)
        b = round_fractional_matching(g, fractional.matching.weights, candidates, seed=6)
        assert a == b

    def test_statistics_consistent(self):
        g = gnp_random_graph(300, 0.05, seed=7)
        fractional = mpc_fractional_matching(g, seed=7)
        candidates = fractional.rounding_candidates(0.1)
        outcome = round_fractional_matching_detailed(
            g, fractional.matching.weights, candidates, seed=8
        )
        assert outcome.proposals == len(outcome.matching) + outcome.collisions

    def test_single_edge_graph_high_weight(self):
        """A single saturated edge is proposed with prob ~2/10 per side."""
        g = Graph(2, [(0, 1)])
        weights = {(0, 1): 1.0}
        hits = sum(
            bool(round_fractional_matching(g, weights, {0, 1}, seed=s))
            for s in range(400)
        )
        # P(matched) = P(at least one endpoint proposes) = 1-(0.9)^2 = 0.19.
        assert 0.10 <= hits / 400 <= 0.30


# ---------------------------------------------------------------------------
# The array implementation against the scalar per-vertex reference
# ---------------------------------------------------------------------------


def _draw_proposal(incident: List[Tuple[int, float]], rng) -> Optional[int]:
    """Sample ``X_v``: neighbor ``u`` w.p. ``x_{uv}/10``, else ``None``."""
    roll = rng.random()
    cumulative = 0.0
    for u, x in incident:
        cumulative += x / PROPOSAL_DAMPENING
        if roll < cumulative:
            return u
    return None


def _reference_rounding(weights, candidates, seed) -> RoundingOutcome:
    """The scalar Lemma 5.1 loop: per-candidate incident lists in map order."""
    import random

    rng = random.Random(seed)
    candidate_list = sorted(set(candidates))
    incident: Dict[int, List[Tuple[int, float]]] = {v: [] for v in candidate_list}
    for (u, v), x in weights.items():
        if x <= 0.0:
            continue
        if u in incident:
            incident[u].append((v, x))
        if v in incident:
            incident[v].append((u, x))
    proposed: Set[Tuple[int, int]] = set()
    touch_count: Dict[int, int] = {}
    for v in candidate_list:
        choice = _draw_proposal(incident[v], rng)
        if choice is None:
            continue
        edge = (min(v, choice), max(v, choice))
        if edge in proposed:
            continue
        proposed.add(edge)
        for endpoint in edge:
            touch_count[endpoint] = touch_count.get(endpoint, 0) + 1
    good = {
        edge
        for edge in proposed
        if touch_count[edge[0]] == 1 and touch_count[edge[1]] == 1
    }
    return RoundingOutcome(
        matching=good, proposals=len(proposed), collisions=len(proposed) - len(good)
    )


@st.composite
def rounding_inputs(draw):
    """Weight maps in arbitrary order, with zero weights, isolated
    candidates, and saturated edges both endpoints are likely to propose."""
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda e: e[0] != e[1]),
            max_size=30,
            unique_by=lambda e: (min(e), max(e)),
        )
    )
    weight = st.one_of(
        st.just(0.0),
        st.just(1.0),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    weights = {(min(e), max(e)): draw(weight) for e in pairs}
    # Candidates may exceed the edge range: those draw a roll, propose nothing.
    candidates = draw(st.sets(st.integers(min_value=0, max_value=n + 2)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return weights, candidates, seed


@settings(max_examples=300, deadline=None)
@given(rounding_inputs())
def test_array_rounding_matches_scalar_reference(case):
    weights, candidates, seed = case
    assert round_fractional_matching_detailed(
        None, weights, candidates, seed=seed
    ) == _reference_rounding(weights, candidates, seed)


def test_edge_proposed_by_both_endpoints_counts_once():
    """With ``x = 1`` each endpoint proposes when its roll is below 1/10."""
    import random

    weights = {(0, 1): 1.0}

    def both_propose(seed):
        rng = random.Random(seed)
        return rng.random() < 0.1 and rng.random() < 0.1

    seed = next(s for s in range(10_000) if both_propose(s))
    outcome = round_fractional_matching_detailed(None, weights, {0, 1}, seed=seed)
    assert outcome == _reference_rounding(weights, {0, 1}, seed)
    assert outcome.matching == {(0, 1)}
    assert (outcome.proposals, outcome.collisions) == (1, 0)
