"""Seeded regression pins.

These tests pin exact outputs for fixed seeds.  They exist to catch
*unintentional* behavior changes — a refactor that silently perturbs the
randomness consumption order, the permutation handling, or the weight
arithmetic will trip them even if every invariant still holds.  If a
change is intentional (e.g. an algorithmic fix), update the pins in the
same commit and say why.

The library's randomness is built on ``random.Random``, SHA-256-keyed
streams and the SplitMix64 counter generator (the MPC and
CONGESTED-CLIQUE solvers' draws), all stable across Python versions, so
these pins are portable.
"""

import pytest

from repro.baselines.luby import luby_mis
from repro.core.central import central_fractional_matching
from repro.core.integral import mpc_maximum_matching
from repro.core.matching_mpc import mpc_fractional_matching
from repro.core.mis_mpc import mis_mpc
from repro.graph.generators import gnp_random_graph


@pytest.fixture(scope="module")
def pinned_graph():
    return gnp_random_graph(100, 0.1, seed=123)


class TestPinnedOutputs:
    def test_generator_pin(self, pinned_graph):
        assert pinned_graph.num_edges == 512

    def test_mis_pin(self, pinned_graph):
        result = mis_mpc(pinned_graph, seed=123)
        assert len(result.mis) == 23
        assert result.rounds == 9
        assert result.mis[:8].tolist() == [7, 17, 21, 25, 29, 30, 31, 36]

    def test_fractional_matching_pin(self, pinned_graph):
        result = mpc_fractional_matching(pinned_graph, seed=123)
        assert result.weight == pytest.approx(32.419767, abs=1e-5)
        assert len(result.vertex_cover) == 81
        assert result.rounds == 29

    def test_integral_matching_pin(self, pinned_graph):
        result = mpc_maximum_matching(pinned_graph, seed=123)
        assert len(result.matching) == 43
        assert sorted(result.matching)[:4] == [(1, 65), (2, 12), (3, 60), (4, 83)]

    def test_central_pin(self, pinned_graph):
        result = central_fractional_matching(pinned_graph, epsilon=0.1, seed=123)
        assert result.weight == pytest.approx(39.523292, abs=1e-5)
        assert result.iterations == 34

    def test_luby_pin(self, pinned_graph):
        result = luby_mis(pinned_graph, seed=123)
        assert len(result.mis) == 22
        assert result.rounds == 3
