"""Unit tests for the Lemma 5.1 randomized rounding."""

import random
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import MatchingConfig
from repro.core.matching_mpc import mpc_fractional_matching
from repro.core.rounding import (
    PROPOSAL_DAMPENING,
    RoundingOutcome,
    _resolve_proposals,
    round_fractional_matching,
)
from repro.graph.generators import barabasi_albert, complete_graph, gnp_random_graph
from repro.graph.graph import Graph
from repro.graph.properties import is_matching
from tests.reference.fractional import from_weights


class TestRounding:
    def test_output_is_always_a_matching(self):
        g = gnp_random_graph(200, 0.08, seed=1)
        fractional = mpc_fractional_matching(g, seed=1)
        candidates = fractional.rounding_candidates(0.1)
        for seed in range(5):
            matching = round_fractional_matching(
                fractional.matching, candidates, seed=seed
            ).matching
            assert is_matching(g, matching)

    def test_yield_meets_paper_guarantee(self):
        """Lemma 5.1: matching size >= |C~|/50 (w.h.p.; measured is larger)."""
        g = gnp_random_graph(400, 0.05, seed=2)
        fractional = mpc_fractional_matching(g, seed=2)
        candidates = fractional.rounding_candidates(0.1)
        assert len(candidates) > 50
        matching = round_fractional_matching(
            fractional.matching, candidates, seed=3
        ).matching
        assert len(matching) >= len(candidates) / 50

    def test_empty_candidates(self):
        fractional = from_weights(complete_graph(4), {(0, 1): 0.5})
        outcome = round_fractional_matching(fractional, set(), seed=1)
        assert _fields(outcome) == ([], 0, 0)
        assert outcome.matching.shape == (0, 2)

    def test_zero_weights_never_proposed(self):
        g = Graph(4, [(0, 1), (2, 3)])
        weights = {(0, 1): 0.0, (2, 3): 0.0}
        outcome = round_fractional_matching(
            from_weights(g, weights), {0, 1, 2, 3}, seed=4
        )
        assert outcome.proposals == 0
        assert outcome.matching.size == 0

    def test_determinism(self):
        g = gnp_random_graph(100, 0.1, seed=5)
        fractional = mpc_fractional_matching(g, seed=5)
        candidates = fractional.rounding_candidates(0.1)
        a = round_fractional_matching(fractional.matching, candidates, seed=6)
        b = round_fractional_matching(fractional.matching, candidates, seed=6)
        assert _fields(a) == _fields(b)

    def test_statistics_consistent(self):
        g = gnp_random_graph(300, 0.05, seed=7)
        fractional = mpc_fractional_matching(g, seed=7)
        candidates = fractional.rounding_candidates(0.1)
        outcome = round_fractional_matching(fractional.matching, candidates, seed=8)
        assert outcome.proposals == len(outcome.matching) + outcome.collisions

    def test_single_edge_graph_high_weight(self):
        """A single saturated edge is proposed with prob ~2/10 per side."""
        fractional = from_weights(Graph(2, [(0, 1)]), {(0, 1): 1.0})
        hits = sum(
            len(round_fractional_matching(fractional, {0, 1}, seed=s).matching) > 0
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


def _fields(outcome: RoundingOutcome) -> Tuple[List[List[int]], int, int]:
    """An outcome as ``(matching rows, proposals, collisions)`` lists."""
    return outcome.matching.tolist(), outcome.proposals, outcome.collisions


def _reference_rounding(weights, candidates, seed) -> Tuple[List[List[int]], int, int]:
    """The scalar Lemma 5.1 loop: per-candidate incident lists in map order.

    Returns :func:`_fields` of the outcome, the good edges ascending."""
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
    return sorted(map(list, good)), len(proposed), len(proposed) - len(good)


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
    return n, weights, candidates, seed


@settings(max_examples=300, deadline=None)
@given(rounding_inputs())
def test_array_rounding_matches_scalar_reference(case):
    n, weights, candidates, seed = case
    fractional = from_weights(Graph(n, list(weights)), weights)
    assert _fields(
        round_fractional_matching(fractional, candidates, seed=seed)
    ) == _reference_rounding(weights, candidates, seed)


def test_edge_proposed_by_both_endpoints_counts_once():
    """With ``x = 1`` each endpoint proposes when its roll is below 1/10."""
    weights = {(0, 1): 1.0}

    def both_propose(seed):
        rng = random.Random(seed)
        return rng.random() < 0.1 and rng.random() < 0.1

    seed = next(s for s in range(10_000) if both_propose(s))
    fractional = from_weights(Graph(2, [(0, 1)]), weights)
    outcome = round_fractional_matching(fractional, {0, 1}, seed=seed)
    assert _fields(outcome) == _reference_rounding(weights, {0, 1}, seed)
    assert outcome.matching.tolist() == [[0, 1]]
    assert (outcome.proposals, outcome.collisions) == (1, 0)


def _unique_resolution(proposer_ids, partner) -> RoundingOutcome:
    """H resolution by ``np.unique`` over ``(lo, hi)`` rows and endpoints."""
    lo = np.minimum(proposer_ids, partner)
    hi = np.maximum(proposer_ids, partner)
    proposed = np.unique(np.column_stack((lo, hi)), axis=0)
    _, slot_of, touches = np.unique(
        proposed.ravel(), return_inverse=True, return_counts=True
    )
    good = (touches[slot_of].reshape(-1, 2) == 1).all(axis=1)
    matching = proposed[good]
    return RoundingOutcome(
        matching=matching,
        proposals=len(proposed),
        collisions=len(proposed) - len(matching),
    )


@st.composite
def proposal_sets(draw):
    """Distinct proposers, each naming one other id; small spans make
    shared endpoints and edges proposed by both endpoints common."""
    span = draw(st.integers(min_value=2, max_value=16))
    proposers = sorted(draw(st.sets(st.integers(0, span - 1), max_size=span)))
    partner = [
        draw(st.integers(0, span - 1).filter(lambda q, p=p: q != p))
        for p in proposers
    ]
    return span, proposers, partner


@settings(max_examples=300, deadline=None)
@given(proposal_sets())
@example((2, [0, 1], [1, 0]))  # one edge, proposed by both endpoints
@example((5, [0, 1, 2, 3], [1, 0, 3, 4]))  # a mutual pair beside a path
@example((3, [], []))
def test_proposal_resolution_matches_unique_reference(case):
    span, proposers, partner = case
    proposer_ids = np.array(proposers, dtype=np.int64)
    partner = np.array(partner, dtype=np.int64)
    outcome = _resolve_proposals(proposer_ids, partner, span)
    reference = _unique_resolution(proposer_ids, partner)
    assert outcome.matching.dtype == reference.matching.dtype
    assert outcome.matching.shape == reference.matching.shape
    assert _fields(outcome) == _fields(reference)


# ---------------------------------------------------------------------------
# Real-size fractional matchings, the reach boundary, out-of-range ids
# ---------------------------------------------------------------------------


def _row_weights(fractional) -> Dict[Tuple[int, int], float]:
    """A fractional matching's rows as a weight map in row order."""
    return dict(zip(map(tuple, fractional.edges.tolist()), fractional.x.tolist()))


_REAL_GRAPHS = {
    "gnp-2000-s1": lambda: gnp_random_graph(2000, 0.01, seed=1),
    "gnp-2000-s2": lambda: gnp_random_graph(2000, 0.01, seed=2),
    "gnp-2000-s3": lambda: gnp_random_graph(2000, 0.01, seed=3),
    "ba-2000": lambda: barabasi_albert(2000, 4, seed=4),
}


@pytest.fixture(scope="module", params=sorted(_REAL_GRAPHS))
def real_graph(request):
    return _REAL_GRAPHS[request.param]()


@pytest.mark.parametrize("epsilon", [0.1, 0.2])
def test_matches_scalar_reference_on_mpc_fractional_matchings(real_graph, epsilon):
    result = mpc_fractional_matching(
        real_graph, config=MatchingConfig(epsilon=epsilon), seed=9
    )
    candidates = result.rounding_candidates(epsilon)
    assert len(candidates) > 100
    weights = _row_weights(result.matching)
    for seed in (1, 2):
        outcome = round_fractional_matching(result.matching, candidates, seed=seed)
        assert _fields(outcome) == _reference_rounding(weights, candidates, seed)
        assert outcome.proposals > 0


def test_out_of_range_candidates_at_scale(real_graph):
    """Ids past ``n`` draw the last rolls and propose nothing; a negative id
    draws the first roll and shifts every other candidate's."""
    result = mpc_fractional_matching(real_graph, seed=5)
    candidates = result.rounding_candidates(0.1)
    n = real_graph.num_vertices
    weights = _row_weights(result.matching)
    plain = round_fractional_matching(result.matching, candidates, seed=3)
    beyond = np.concatenate([candidates, [n, n + 7, 3 * n]])
    wide = round_fractional_matching(result.matching, beyond, seed=3)
    assert _fields(wide) == _fields(plain)
    assert _fields(wide) == _reference_rounding(weights, beyond.tolist(), 3)
    shifted = np.concatenate([[-3], candidates, [n + 1]])
    assert _fields(
        round_fractional_matching(result.matching, shifted, seed=3)
    ) == _reference_rounding(weights, shifted.tolist(), 3)


class _ScriptedRolls(random.Random):
    """A generator whose ``random()`` returns the given rolls in order."""

    def __init__(self, rolls):
        super().__init__(0)
        self._rolls = list(rolls)

    def random(self):
        return self._rolls.pop(0)


def test_roll_at_reach_does_not_propose_and_one_ulp_below_does():
    """A candidate proposes iff its roll is below its reach, the walk's
    final running sum: at the reach exactly it proposes nothing, one ulp
    below it proposes its last neighbour."""
    weights = {(0, 1): 0.1, (0, 2): 0.7, (0, 3): 0.2, (3, 4): 0.3, (4, 5): 0.6}
    fractional = from_weights(Graph(6, list(weights)), weights)
    reach = {}
    for v in (0, 4):
        reach[v] = 0.0
        for edge, x in weights.items():
            if v in edge:
                reach[v] += x / PROPOSAL_DAMPENING

    at = _ScriptedRolls([reach[0], reach[4]])
    outcome = round_fractional_matching(fractional, {0, 4}, seed=at)
    assert _fields(outcome) == ([], 0, 0)

    below = [np.nextafter(reach[v], 0.0) for v in (0, 4)]
    outcome = round_fractional_matching(
        fractional, {0, 4}, seed=_ScriptedRolls(below)
    )
    assert _fields(outcome) == ([[0, 3], [4, 5]], 2, 0)
    incident = {0: [(1, 0.1), (2, 0.7), (3, 0.2)], 4: [(3, 0.3), (5, 0.6)]}
    for v, roll in zip((0, 4), below):
        last = incident[v][-1][0]
        assert _draw_proposal(incident[v], _ScriptedRolls([roll])) == last
