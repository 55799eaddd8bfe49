"""Unit tests for utils: rng, trace, validation."""

import random

import pytest

from repro.utils.rng import (
    RngStream,
    child_rng,
    make_rng,
    random_permutation,
)
from repro.utils.trace import Trace, maybe_record
from repro.utils.validation import (
    require,
    require_epsilon,
    require_non_negative,
    require_positive,
    require_probability,
    require_type,
)


class TestRng:
    def test_make_rng_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_make_rng_passthrough(self):
        rng = make_rng(1)
        assert make_rng(rng) is rng

    def test_none_seed_is_fixed_default(self):
        assert make_rng(None).random() == make_rng(None).random()

    def test_child_rng_label_independence(self):
        parent_a = make_rng(1)
        parent_b = make_rng(1)
        assert (
            child_rng(parent_a, "x").random() == child_rng(parent_b, "x").random()
        )
        parent_c = make_rng(1)
        assert (
            child_rng(parent_c, "x").random()
            != child_rng(make_rng(1), "y").random()
        )

    def test_stream_keyed_determinism(self):
        s1 = RngStream(9, namespace="t")
        s2 = RngStream(9, namespace="t")
        assert s1.uniform(0, 1, 4, 7) == s2.uniform(0, 1, 4, 7)
        assert s1.uniform(0, 1, 4, 7) != s1.uniform(0, 1, 4, 8)

    def test_stream_namespace_separation(self):
        a = RngStream(9, namespace="a").random(1)
        b = RngStream(9, namespace="b").random(1)
        assert a != b

    def test_random_permutation(self):
        perm = random_permutation(100, seed=3)
        assert sorted(perm) == list(range(100))
        assert perm != list(range(100))  # astronomically unlikely to be id


class TestTrace:
    def test_record_and_query(self):
        trace = Trace()
        trace.record("phase", index=1, edges=10)
        trace.record("phase", index=2, edges=5)
        trace.record("other", x=0)
        assert trace.count("phase") == 2
        assert trace.values("phase", "edges") == [10, 5]
        assert trace.last("phase")["index"] == 2
        assert trace.last("missing") is None
        assert len(trace) == 3
        assert len(trace.events()) == 3

    def test_maybe_record_none_is_noop(self):
        maybe_record(None, "anything", x=1)  # must not raise

    def test_event_getitem(self):
        trace = Trace()
        trace.record("k", value=42)
        assert trace.events("k")[0]["value"] == 42


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

    def test_type(self):
        require_type(3, int, "n")
        with pytest.raises(TypeError):
            require_type("3", int, "n")
