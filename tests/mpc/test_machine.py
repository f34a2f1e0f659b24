"""Tests for the MPC machine and its one-access-per-module contract."""

import numpy as np
import pytest

from repro.mpc.machine import MPC, all_distinct, max_multiplicity


class TestStep:
    def test_all_distinct_served_at_once(self):
        mpc = MPC(10)
        winners = mpc.step(np.array([0, 3, 7]))
        assert sorted(winners.tolist()) == [0, 1, 2]
        assert mpc.stats.steps == 1 and mpc.stats.served == 3

    def test_conflict_one_per_module(self):
        mpc = MPC(10)
        winners = mpc.step(np.array([4, 4, 4, 4]))
        assert winners.tolist() == [0]  # lowest-id policy
        assert mpc.stats.max_congestion == 4

    def test_mixed(self):
        mpc = MPC(10)
        winners = mpc.step(np.array([1, 2, 1, 3, 2]))
        assert sorted(np.array([1, 2, 1, 3, 2])[winners].tolist()) == [1, 2, 3]

    def test_empty_step_advances_time(self):
        mpc = MPC(10)
        out = mpc.step(np.array([], dtype=np.int64))
        assert out.size == 0 and mpc.stats.steps == 1

    def test_invalid_module_raises(self):
        mpc = MPC(10)
        with pytest.raises(ValueError):
            mpc.step(np.array([10]))
        with pytest.raises(ValueError):
            mpc.step(np.array([-1]))

    def test_bad_module_count(self):
        with pytest.raises(ValueError):
            MPC(0)

    def test_serialization_time(self):
        # k requests to one module need exactly k steps
        mpc = MPC(5)
        pending = list(range(8))
        reqs = np.zeros(8, dtype=np.int64)
        while pending:
            winners = mpc.step(reqs[: len(pending)])
            assert winners.size == 1
            pending.pop()
        assert mpc.stats.steps == 8

    def test_reset(self):
        mpc = MPC(5)
        mpc.step(np.array([1]))
        mpc.reset()
        assert mpc.stats.steps == 0

    def test_reset_preserves_arbiter_object(self):
        from repro.mpc.arbitration import RotatingArbiter

        arb = RotatingArbiter()
        mpc = MPC(5, arbitration=arb)
        mpc.step(np.array([0, 0]))
        mpc.reset()
        assert mpc.arbiter is arb  # same policy object, with its state

    def test_reset_preserves_keep_history(self):
        mpc = MPC(5, history=True)
        mpc.step(np.array([0, 1]))
        mpc.reset()
        assert mpc.stats.keep_history is True
        assert mpc.stats.served_per_step == []
        mpc.step(np.array([2]))
        assert mpc.stats.served_per_step == [1]


class TestPolicies:
    def test_random_policy_valid(self):
        mpc = MPC(10, arbitration="random", seed=42)
        reqs = np.array([1, 1, 1, 2, 2, 3])
        winners = mpc.step(reqs)
        assert sorted(reqs[winners].tolist()) == [1, 2, 3]

    def test_rotating_policy_fair(self):
        mpc = MPC(10, arbitration="rotating")
        # same 3 requesters to one module: winners should rotate
        seen = set()
        for _ in range(6):
            winners = mpc.step(np.array([0, 0, 0]))
            seen.add(int(winners[0]))
        assert len(seen) >= 2  # not persistently favouring one index

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            MPC(10, arbitration="coin-flip")

    def test_custom_arbiter_object(self):
        from repro.mpc.arbitration import LowestIdArbiter

        mpc = MPC(10, arbitration=LowestIdArbiter())
        winners = mpc.step(np.array([5, 5]))
        assert winners.tolist() == [0]


class TestHistory:
    def test_served_per_step_recorded(self):
        mpc = MPC(10, history=True)
        mpc.step(np.array([0, 1]))
        mpc.step(np.array([0, 0]))
        assert mpc.stats.served_per_step == [2, 1]


class TestSortedCounts:
    def test_match_unique_counts(self):
        # the sort-based counts agree with np.unique's on random inputs
        rng = np.random.default_rng(0)
        for _ in range(300):
            x = rng.integers(0, rng.integers(1, 40), size=rng.integers(1, 30))
            _, counts = np.unique(x, return_counts=True)
            assert max_multiplicity(x) == counts.max()
            assert all_distinct(x) == (counts.max() == 1)

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert max_multiplicity(empty) == 0
        assert all_distinct(empty)
