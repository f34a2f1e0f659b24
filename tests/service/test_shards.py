"""Sharded repository: routing, namespacing, and the shared clock."""

import numpy as np
import pytest

from repro.faults.report import QuorumLostError
from repro.service.shards import ShardedKV


@pytest.fixture(scope="module")
def store() -> ShardedKV:
    """Small 2-shard store (n=3 schemes keep the module fast)."""
    return ShardedKV(n_shards=2, q=2, n=3, seed=0)


class TestRouting:
    def test_route_is_deterministic_and_stable(self):
        a = ShardedKV(n_shards=4, q=2, n=3, seed=7)
        b = ShardedKV(n_shards=4, q=2, n=3, seed=7)
        keys = np.arange(1000, dtype=np.int64)
        assert np.array_equal(a.route_ints(keys), b.route_ints(keys))

    def test_route_seed_changes_assignment(self):
        keys = np.arange(1000, dtype=np.int64)
        a = ShardedKV(n_shards=4, q=2, n=3, seed=0).route_ints(keys)
        b = ShardedKV(n_shards=4, q=2, n=3, seed=1).route_ints(keys)
        assert not np.array_equal(a, b)

    def test_route_covers_all_shards_roughly_evenly(self):
        s = ShardedKV(n_shards=4, q=2, n=3, seed=0)
        counts = np.bincount(
            s.route_ints(np.arange(4000, dtype=np.int64)), minlength=4
        )
        assert counts.min() > 0
        # a seeded avalanche hash should stay within a loose band
        assert counts.max() < 2 * counts.min()

    def test_route_one_matches_vectorized(self, store):
        for k in (0, 1, 17, 123456789, 2**40):
            assert store.route_one(k) == int(
                store.route_ints(np.asarray([k]))[0]
            )

    def test_route_one_str_in_range(self, store):
        assert store.route_one("alpha") in range(store.n_shards)

    def test_single_shard_routes_everything_to_zero(self):
        s = ShardedKV(n_shards=1, q=2, n=3, seed=0)
        assert not s.route_ints(np.arange(100, dtype=np.int64)).any()

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedKV(n_shards=0)


class TestNamespacing:
    def test_var_bases_are_disjoint(self):
        s = ShardedKV(n_shards=3, q=2, n=3, seed=0)
        spans = [
            (st.var_base, st.var_base + st.scheme.M) for st in s.shards
        ]
        spans.sort()
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi <= lo


class TestClockedOps:
    def test_put_get_delete_through_shard_wrappers(self):
        s = ShardedKV(n_shards=2, q=2, n=3, seed=0)
        keys = [3, 5, 9]
        shard = int(s.route_ints(np.asarray([3]))[0])
        same = [k for k in keys if s.route_one(k) == shard]
        s.shard_put(shard, same, np.arange(1, len(same) + 1))
        got = s.shard_round(shard, gets=same).got
        assert got.tolist() == list(range(1, len(same) + 1))
        assert s.shard_round(shard, deletes=same).removed == len(same)
        assert s.shard_round(shard, gets=same).got.tolist() == [-1] * len(same)

    def test_shard_round_runs_get_put_delete_on_one_probe(self):
        s = ShardedKV(n_shards=1, q=2, n=3, seed=0)
        s.shard_put(0, [1, 2], [10, 20])
        r = s.shard_round(
            0, gets=[1, 2, 3], puts=[2, 3, 4], values=[21, 30, 40],
            deletes=[1, 4],
        )
        assert r.lost is None
        # gets see the pre-round state
        assert r.got.tolist() == [10, 20, -1]
        assert r.put == {"inserted": 2, "updated": 1,
                         "protocol_rounds": r.put["protocol_rounds"]}
        # the delete finds the key put in the same round
        assert r.removed == 2
        after = s.shard_round(0, gets=[1, 2, 3, 4]).got
        assert after.tolist() == [-1, 21, 30, -1]

    def test_quorum_loss_stops_the_shard_round(self):
        s = ShardedKV(n_shards=1, q=2, n=3, seed=0)
        s.shard_put(0, [1], [10])
        s.set_failed_modules(0, np.arange(s.shards[0].scheme.N))
        r = s.shard_round(0, gets=[1], puts=[2], values=[5], deletes=[1])
        assert isinstance(r.lost, QuorumLostError)
        assert r.got is None and r.put is None and r.removed is None
        with pytest.raises(QuorumLostError):
            s.shard_put(0, [2], [5])
        s.set_failed_modules(0, None)
        assert s.shard_round(0, gets=[1, 2]).got.tolist() == [10, -1]

    def test_shared_clock_is_monotone_across_shards(self):
        s = ShardedKV(n_shards=2, q=2, n=3, seed=0)
        k0 = next(k for k in range(100) if s.route_one(k) == 0)
        k1 = next(k for k in range(100) if s.route_one(k) == 1)
        s.shard_put(0, [k0], [1])
        after_first = s.clock
        s.shard_put(1, [k1], [2])
        assert s.clock > after_first
        # each shard's local clock was pulled up past the other's rounds
        assert s.shards[1].clock >= after_first

    def test_enter_leave_folds_direct_driving_into_clock(self):
        s = ShardedKV(n_shards=2, q=2, n=3, seed=0)
        st = s.enter_shard(0)
        k0 = next(k for k in range(100) if s.route_one(k) == 0)
        st.batch_put([k0], [7])
        before = s.clock
        s.leave_shard(st)
        assert s.clock >= before
        assert s.clock == max(sh.clock for sh in s.shards)


class TestAccounting:
    def test_capacity_and_size_aggregate(self, store):
        assert store.capacity == sum(sh.capacity for sh in store.shards)
        assert store.size == sum(sh.size for sh in store.shards)

    def test_cost_summary_shape(self, store):
        cs = store.cost_summary()
        assert cs["n_shards"] == store.n_shards
        assert len(cs["shards"]) == store.n_shards
        assert cs["protocol_rounds"] == sum(
            p["protocol_rounds"] for p in cs["shards"]
        )

    def test_set_failed_modules_passthrough(self):
        s = ShardedKV(n_shards=2, q=2, n=3, seed=0)
        s.set_failed_modules(0, np.asarray([0, 1]))
        s.set_failed_modules(0, None)  # clears without error

    def test_repr(self, store):
        assert "ShardedKV" in repr(store)
