"""Unit tests for the threshold oracle."""

import numpy as np
import pytest

from repro.core.thresholds import ThresholdOracle, fixed_oracle


class TestThresholdOracle:
    def test_range(self):
        oracle = ThresholdOracle(0.6, 0.8, seed=1)
        for v in range(50):
            for t in range(5):
                assert 0.6 <= oracle.threshold(v, t) <= 0.8

    def test_deterministic_coupling(self):
        """Two oracles with the same seed agree everywhere — the coupling
        property the Lemma 4.11 analysis needs."""
        a = ThresholdOracle(0.6, 0.8, seed=42)
        b = ThresholdOracle(0.6, 0.8, seed=42)
        assert all(
            a.threshold(v, t) == b.threshold(v, t)
            for v in range(20)
            for t in range(20)
        )

    def test_varies_over_vertices_and_iterations(self):
        oracle = ThresholdOracle(0.6, 0.8, seed=3)
        values = {oracle.threshold(v, t) for v in range(10) for t in range(10)}
        assert len(values) > 90  # collisions are measure-zero

    def test_fixed_oracle(self):
        oracle = fixed_oracle(0.75)
        assert oracle.threshold(0, 0) == 0.75
        assert oracle.threshold(99, 99) == 0.75

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            ThresholdOracle(0.8, 0.6, seed=1)

    def test_distribution_roughly_uniform(self):
        oracle = ThresholdOracle(0.0, 1.0, seed=5)
        draws = [oracle.threshold(v, 0) for v in range(2000)]
        mean = sum(draws) / len(draws)
        assert abs(mean - 0.5) < 0.03

    def test_order_free(self):
        """A draw depends on (seed, v, t) only: any batch order or split
        of the vertices reads the same thresholds."""
        oracle = ThresholdOracle(0.6, 0.8, seed=7)
        vs = np.arange(300)
        whole = oracle.thresholds_batch(vs, 4)
        shuffled = np.random.default_rng(0).permutation(vs)
        assert np.array_equal(oracle.thresholds_batch(shuffled, 4), whole[shuffled])
        split = np.concatenate(
            [oracle.thresholds_batch(vs[:100], 4), oracle.thresholds_batch(vs[100:], 4)]
        )
        assert np.array_equal(split, whole)

    def test_crosses_batch_is_the_definition(self):
        """The band short-circuit decides exactly ``est >= T_{v,t}``,
        including estimates on and next to the band ends."""
        oracle = ThresholdOracle(0.6, 0.8, seed=11)
        vs = np.arange(400)
        edges = np.array([0.6, 0.8, np.nextafter(0.6, 0), np.nextafter(0.8, 1)])
        estimates = np.concatenate(
            [np.linspace(0.5, 0.9, 396), edges]
        )
        expected = estimates >= oracle.thresholds_batch(vs, 9)
        assert np.array_equal(oracle.crosses_batch(vs, 9, estimates), expected)
