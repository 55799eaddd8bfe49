"""Unit tests for the test-side O(1)-round MPC sort reference ([GSZ11])."""

import pytest

from repro.mpc.cluster import MPCCluster
from repro.mpc.errors import MemoryExceededError
from repro.utils.rng import make_rng
from tests.reference.sort import SORT_ROUND_COST, mpc_prefix_sums, mpc_sort


def _random_shards(num_machines, total, seed):
    rng = make_rng(seed)
    values = [rng.randrange(10**6) for _ in range(total)]
    shards = [[] for _ in range(num_machines)]
    for v in values:
        shards[rng.randrange(num_machines)].append(v)
    return shards, sorted(values)


class TestMPCSort:
    def test_sorts_globally(self):
        cluster = MPCCluster(8, words_per_machine=4000)
        shards, expected = _random_shards(8, 5000, seed=1)
        outcome = mpc_sort(cluster, shards, seed=1)
        assert outcome.flattened() == expected

    def test_shards_are_range_partitioned(self):
        cluster = MPCCluster(4, words_per_machine=4000)
        shards, _ = _random_shards(4, 2000, seed=2)
        outcome = mpc_sort(cluster, shards, seed=2)
        for left, right in zip(outcome.shards, outcome.shards[1:]):
            if left and right:
                assert left[-1] <= right[0]

    def test_constant_round_cost(self):
        cluster = MPCCluster(4, words_per_machine=4000)
        shards, _ = _random_shards(4, 2000, seed=3)
        outcome = mpc_sort(cluster, shards, seed=3)
        assert outcome.rounds_used == SORT_ROUND_COST
        assert cluster.rounds == SORT_ROUND_COST

    def test_balanced_buckets(self):
        cluster = MPCCluster(8, words_per_machine=4000)
        shards, _ = _random_shards(8, 8000, seed=4)
        outcome = mpc_sort(cluster, shards, seed=4)
        assert outcome.max_shard_size < 4 * (8000 // 8)

    def test_custom_key(self):
        cluster = MPCCluster(2, words_per_machine=1000)
        shards = [[(1, "b"), (3, "a")], [(2, "c")]]
        outcome = mpc_sort(cluster, shards, key=lambda kv: kv[0], seed=5)
        assert [kv[0] for kv in outcome.flattened()] == [1, 2, 3]

    def test_empty_input(self):
        cluster = MPCCluster(3, words_per_machine=100)
        outcome = mpc_sort(cluster, [[], [], []])
        assert outcome.flattened() == []
        assert outcome.rounds_used == SORT_ROUND_COST

    def test_too_many_shards_rejected(self):
        cluster = MPCCluster(2, words_per_machine=100)
        with pytest.raises(ValueError):
            mpc_sort(cluster, [[1], [2], [3]])

    def test_memory_violation_raises(self):
        """A skewed instance on an undersized cluster must fail loudly."""
        cluster = MPCCluster(2, words_per_machine=40)
        shards = [[5] * 60, [5] * 60]  # all-equal keys: one bucket gets all
        with pytest.raises(MemoryExceededError):
            mpc_sort(cluster, shards, seed=6)

    def test_determinism(self):
        shards, _ = _random_shards(4, 1000, seed=7)
        a = mpc_sort(MPCCluster(4, 4000), [list(s) for s in shards], seed=8)
        b = mpc_sort(MPCCluster(4, 4000), [list(s) for s in shards], seed=8)
        assert a.shards == b.shards


class TestPrefixSums:
    def test_prefix_sums(self):
        cluster = MPCCluster(3, words_per_machine=100)
        shards = [[1.0, 2.0], [3.0], [4.0, 5.0]]
        result, rounds = mpc_prefix_sums(cluster, shards)
        assert result == [[1.0, 3.0], [6.0], [10.0, 15.0]]
        assert rounds == 2

    def test_empty_shards(self):
        cluster = MPCCluster(2, words_per_machine=100)
        result, rounds = mpc_prefix_sums(cluster, [[], []])
        assert result == [[], []]
        assert rounds == 2
