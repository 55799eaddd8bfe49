"""Unit tests for the weighted matching reduction (Corollary 1.4)."""

import pytest

from repro.baselines.exact import brute_force_maximum_weight_matching
from repro.core.weighted_matching import (
    mpc_weighted_matching,
    weight_classes,
)
from repro.graph.generators import random_weighted_graph
from repro.graph.properties import is_matching
from repro.graph.weighted import WeightedGraph


class TestWeightClasses:
    def test_heaviest_class_first(self):
        wg = WeightedGraph(6, [(0, 1, 100.0), (2, 3, 10.0), (4, 5, 5.0)])
        classes = weight_classes(wg, epsilon=0.1)
        assert classes[0] == [(0, 1)]
        flattened = [e for cls in classes for e in cls]
        assert (2, 3) in flattened and (4, 5) in flattened

    def test_below_floor_edge_dropped(self):
        # floor = eps * w_max / n = 0.1 * 100 / 6 = 1.67 > 1.0
        wg = WeightedGraph(6, [(0, 1, 100.0), (4, 5, 1.0)])
        flattened = [e for cls in weight_classes(wg, epsilon=0.1) for e in cls]
        assert (4, 5) not in flattened

    def test_tiny_weights_dropped(self):
        wg = WeightedGraph(4, [(0, 1, 1000.0), (2, 3, 1e-9)])
        classes = weight_classes(wg, epsilon=0.1)
        flattened = [e for cls in classes for e in cls]
        assert (2, 3) not in flattened

    def test_empty_graph(self):
        assert weight_classes(WeightedGraph(3), epsilon=0.1) == []

    def test_class_boundaries_geometric(self):
        wg = WeightedGraph(8, [(0, 1, 8.0), (2, 3, 7.9), (4, 5, 4.0), (6, 7, 1.0)])
        classes = weight_classes(wg, epsilon=0.1)
        # 8.0 and 7.9 fall in the same (1+eps) class.
        assert {(0, 1), (2, 3)} <= set(classes[0])


class TestWeightedMatching:
    def test_output_is_matching(self):
        wg = random_weighted_graph(80, 0.1, seed=1)
        result = mpc_weighted_matching(wg, epsilon=0.1, seed=1)
        assert is_matching(wg.structure, result.matching)
        assert result.weight == pytest.approx(
            wg.matching_weight(result.matching)
        )

    def test_ratio_against_exact_on_tiny_graph(self):
        wg = random_weighted_graph(10, 0.5, distribution="zipf", seed=2)
        _, optimum = brute_force_maximum_weight_matching(wg)
        result = mpc_weighted_matching(wg, epsilon=0.1, seed=2)
        # Greedy-by-class is a (2+O(eps)) approximation.
        assert result.weight >= optimum / 2.5

    def test_heavy_edge_always_matched(self):
        """An edge 10x heavier than everything else must be taken."""
        wg = WeightedGraph(6, [(0, 1, 1000.0), (1, 2, 1.0), (3, 4, 1.0)])
        result = mpc_weighted_matching(wg, epsilon=0.1, seed=3)
        assert [0, 1] in result.matching.tolist()

    def test_empty(self):
        result = mpc_weighted_matching(WeightedGraph(4), epsilon=0.1)
        assert result.matching.shape == (0, 2)
        assert result.weight == 0.0

    def test_determinism(self):
        wg = random_weighted_graph(50, 0.15, seed=4)
        a = mpc_weighted_matching(wg, epsilon=0.1, seed=5)
        b = mpc_weighted_matching(wg, epsilon=0.1, seed=5)
        assert a.matching.tolist() == b.matching.tolist()

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            mpc_weighted_matching(WeightedGraph(2), epsilon=0.9)

    def test_per_class_accounting(self):
        wg = random_weighted_graph(60, 0.1, distribution="zipf", seed=6)
        result = mpc_weighted_matching(wg, epsilon=0.2, seed=6)
        assert sum(result.per_class_sizes) == len(result.matching)
        assert len(result.per_class_sizes) == result.classes
