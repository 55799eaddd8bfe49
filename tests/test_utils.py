"""Unit tests for utils: rng, validation."""

import random

import numpy as np
import pytest

from repro.utils.rng import RngStream, make_rng
from repro.utils.validation import (
    require,
    require_epsilon,
    require_non_negative,
    require_positive,
    require_probability,
)


class TestRng:
    def test_make_rng_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_make_rng_passthrough(self):
        rng = make_rng(1)
        assert make_rng(rng) is rng

    def test_none_seed_is_fixed_default(self):
        assert make_rng(None).random() == make_rng(None).random()

    def test_stream_keyed_determinism(self):
        s1 = RngStream(9, namespace="t")
        s2 = RngStream(9, namespace="t")
        assert s1.uniform(0, 1, 4, 7) == s2.uniform(0, 1, 4, 7)
        assert s1.uniform(0, 1, 4, 7) != s1.uniform(0, 1, 4, 8)

    def test_stream_namespace_separation(self):
        a = RngStream(9, namespace="a").random(1)
        b = RngStream(9, namespace="b").random(1)
        assert a != b

    def test_stream_seed_separation(self):
        assert RngStream(1).random(0) != RngStream(2).random(0)

    def test_rng_for_restarts_per_call(self):
        stream = RngStream(3, namespace="t")
        first = stream.rng_for(2, "phase")
        assert isinstance(first, random.Random)
        draws = [first.random() for _ in range(4)]
        again = stream.rng_for(2, "phase")
        assert [again.random() for _ in range(4)] == draws

    def test_scalar_draws_come_from_rng_for(self):
        stream = RngStream(3, namespace="t")
        assert stream.random(5, "x") == stream.rng_for(5, "x").random()
        assert stream.uniform(2.0, 3.0, 5) == stream.rng_for(5).uniform(2.0, 3.0)

    def test_uniform_within_bounds(self):
        stream = RngStream(4)
        draws = [stream.uniform(2.0, 3.0, k) for k in range(50)]
        assert all(2.0 <= d <= 3.0 for d in draws)
        assert len(set(draws)) == 50

    @pytest.mark.parametrize("key", [(), (5,), (5, "phase")], ids=repr)
    def test_random_batch_matches_scalar(self, key):
        stream = RngStream(11, namespace="batch")
        entities = [0, 3, 1, 40, 7]
        batch = stream.random_batch(entities, *key)
        assert batch.dtype == np.float64
        assert batch.tolist() == [stream.random(e, *key) for e in entities]

    def test_random_batch_accepts_numpy_entities(self):
        stream = RngStream(11)
        assert np.array_equal(
            stream.random_batch(np.arange(10, dtype=np.int32), 1),
            stream.random_batch(list(range(10)), 1),
        )

    def test_random_batch_empty(self):
        batch = RngStream(11).random_batch([], 1)
        assert batch.shape == (0,)


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")

    def test_positive(self):
        require_positive(0.1, "x")
        with pytest.raises(ValueError):
            require_positive(0, "x")

    def test_non_negative(self):
        require_non_negative(0, "x")
        with pytest.raises(ValueError):
            require_non_negative(-1, "x")

    def test_probability(self):
        require_probability(0.0, "p")
        require_probability(1.0, "p")
        with pytest.raises(ValueError):
            require_probability(1.01, "p")

    def test_epsilon(self):
        require_epsilon(0.1)
        with pytest.raises(ValueError):
            require_epsilon(0.5)
        with pytest.raises(ValueError):
            require_epsilon(0.0)
