"""Tests for the parallel key-value store application layer."""

import numpy as np
import pytest

from repro.kvstore import ParallelKVStore
from repro.kvstore.store import TOMBSTONE
from repro.schemes.pp_adapter import PPAdapter
from repro.schemes.upfal_wigderson import UpfalWigdersonScheme


@pytest.fixture()
def kv():
    return ParallelKVStore(PPAdapter(2, 5), seed=1)


class TestBasics:
    def test_put_get(self, kv):
        keys = [f"user:{i}" for i in range(50)]
        vals = np.arange(50) * 10
        stats = kv.batch_put(keys, vals)
        assert stats["inserted"] == 50 and stats["updated"] == 0
        assert (kv.batch_get(keys) == vals).all()
        assert len(kv) == 50

    def test_missing_keys(self, kv):
        kv.batch_put(["a", "b"], [1, 2])
        got = kv.batch_get(["a", "zzz", "b"])
        assert got.tolist() == [1, -1, 2]

    def test_update_in_place(self, kv):
        kv.batch_put(["k"], [5])
        stats = kv.batch_put(["k"], [9])
        assert stats["updated"] == 1 and stats["inserted"] == 0
        assert kv.batch_get(["k"]).tolist() == [9]
        assert len(kv) == 1

    def test_int_keys(self, kv):
        keys = list(range(1000, 1040))
        kv.batch_put(keys, np.arange(40))
        assert (kv.batch_get(keys) == np.arange(40)).all()

    def test_mixed_put_batches(self, kv):
        kv.batch_put(["a", "b"], [1, 2])
        kv.batch_put(["b", "c"], [20, 3])
        assert kv.batch_get(["a", "b", "c"]).tolist() == [1, 20, 3]

    def test_value_range_checked(self, kv):
        with pytest.raises(ValueError):
            kv.batch_put(["x"], [1 << 33])

    def test_duplicate_keys_rejected(self, kv):
        with pytest.raises(ValueError):
            kv.batch_put(["a", "a"], [1, 2])
        with pytest.raises(ValueError):
            kv.batch_get(["a", "a"])

    def test_length_mismatch(self, kv):
        with pytest.raises(ValueError):
            kv.batch_put(["a"], [1, 2])


class TestDelete:
    def test_delete_and_miss(self, kv):
        kv.batch_put(["a", "b", "c"], [1, 2, 3])
        assert kv.batch_delete(["b", "nope"]) == 1
        assert kv.batch_get(["a", "b", "c"]).tolist() == [1, -1, 3]
        assert len(kv) == 2

    def test_reinsert_after_delete(self, kv):
        kv.batch_put(["a"], [1])
        kv.batch_delete(["a"])
        kv.batch_put(["a"], [2])
        assert kv.batch_get(["a"]).tolist() == [2]

    def test_tombstone_does_not_break_chain(self, kv):
        # build a chain, delete the middle, later keys stay reachable
        keys = [f"x{i}" for i in range(200)]
        kv.batch_put(keys, np.arange(200))
        kv.batch_delete(keys[50:100])
        got = kv.batch_get(keys)
        assert (got[:50] == np.arange(50)).all()
        assert (got[50:100] == -1).all()
        assert (got[100:] == np.arange(100, 200)).all()


class TestScaleAndCost:
    def test_thousand_keys(self, kv):
        keys = np.arange(1000) + 7
        vals = (keys * 13) % (1 << 30)
        kv.batch_put(list(keys), vals)
        assert (kv.batch_get(list(keys)) == vals).all()
        c = kv.cost_summary()
        # probe chains stay short: rounds << number of keys
        assert c["protocol_rounds"] < 150
        assert c["mpc_iterations"] > 0

    def test_fills_toward_capacity(self):
        small = ParallelKVStore(UpfalWigdersonScheme(64, 512, c=2, seed=0), seed=2)
        n = small.capacity // 2
        keys = list(range(n))
        small.batch_put(keys, np.arange(n))
        assert (small.batch_get(keys) == np.arange(n)).all()

    def test_deterministic_across_instances(self):
        a = ParallelKVStore(PPAdapter(2, 5), seed=3)
        b = ParallelKVStore(PPAdapter(2, 5), seed=3)
        keys = [f"k{i}" for i in range(30)]
        a.batch_put(keys, np.arange(30))
        b.batch_put(keys, np.arange(30))
        assert (a.batch_get(keys) == b.batch_get(keys)).all()


class TestScan:
    def test_scan_matches_contents(self, kv):
        keys = [f"s{i}" for i in range(60)]
        vals = np.arange(60) + 100
        kv.batch_put(keys, vals)
        fps, scanned = kv.scan()
        assert fps.size == 60
        assert sorted(scanned.tolist()) == sorted(vals.tolist())

    def test_scan_skips_tombstones(self, kv):
        kv.batch_put(["a", "b", "c"], [1, 2, 3])
        kv.batch_delete(["b"])
        fps, vals = kv.scan()
        assert fps.size == 2
        assert sorted(vals.tolist()) == [1, 3]

    def test_scan_empty(self, kv):
        fps, vals = kv.scan()
        assert fps.size == 0 and vals.size == 0


class TestFaultToleranceComposition:
    def test_store_survives_module_failures(self):
        # the KV layer composes with scheme-level replication: reads via
        # the underlying store still succeed when a module dies, because
        # every slot variable has 3 copies
        kv = ParallelKVStore(PPAdapter(2, 5), seed=4)
        keys = [f"k{i}" for i in range(100)]
        kv.batch_put(keys, np.arange(100))
        # simulate failure by reading through the scheme with failures
        found, slot = kv.locate(keys)
        assert found.all()
        res = kv.scheme.scheme.read(
            np.unique(2 * slot + 1), store=kv.store, time=10_000,
            failed_modules=np.array([3]),
        )
        assert res.unsatisfiable is None


def _spread_keys(kv, count, gap=4):
    """Int keys whose home slots lie at least ``gap`` slots apart, so
    every probe chain of a table holding only them has length 1."""
    homes = kv._home(kv.fingerprints(list(range(10_000))))
    keys, taken = [], []
    for key, h in enumerate(homes.tolist()):
        if all(min((h - t) % kv.capacity, (t - h) % kv.capacity) >= gap
               for t in taken):
            keys.append(key)
            taken.append(h)
            if len(keys) == count:
                return keys
    raise AssertionError("not enough spread keys")  # pragma: no cover


def _batches(kv):
    return kv.cost_summary()["protocol_rounds"]


class TestRoundPlan:
    def test_conflict_free_round_costs_four_batches(self, kv):
        keys = _spread_keys(kv, 12)
        old, new = keys[:8], keys[8:]
        kv.batch_put(old, np.arange(8))
        before = _batches(kv)
        puts = old[4:6] + new
        plan = kv.plan(gets=old[:4], puts=puts, deletes=old[6:])
        assert kv.batch_get(old[:4], plan=plan).tolist() == [0, 1, 2, 3]
        st = kv.batch_put(puts, np.arange(6) + 50, plan=plan)
        assert (st["inserted"], st["updated"]) == (4, 2)
        assert kv.batch_delete(old[6:], plan=plan) == 2
        # probe, value write, fingerprint claim, tombstone
        assert _batches(kv) - before == 4
        assert kv.batch_get(keys).tolist() == (
            [0, 1, 2, 3, 50, 51, -1, -1, 52, 53, 54, 55]
        )
        assert len(kv) == 10

    def test_get_reads_values_with_the_probe(self, kv):
        keys = _spread_keys(kv, 6)
        kv.batch_put(keys, np.arange(6) + 1)
        before = _batches(kv)
        got = kv.batch_get(keys + ["missing"])
        assert got.tolist() == [1, 2, 3, 4, 5, 6, -1]
        # one batch: no value read after the probe
        assert _batches(kv) - before == 1

    def test_put_then_delete_of_a_new_key_ends_deleted(self, kv):
        plan = kv.plan(puts=["n", "m"], deletes=["n"])
        assert kv.batch_put(["n", "m"], [5, 6], plan=plan)["inserted"] == 2
        assert kv.batch_delete(["n"], plan=plan) == 1
        assert len(kv) == 1
        assert kv.batch_get(["n", "m"]).tolist() == [-1, 6]

    def test_claim_collision_losers_land_past_the_lost_claim(self, kv):
        homes = kv._home(kv.fingerprints(list(range(20_000)))).tolist()
        h = homes[0]
        same = [k for k, hk in enumerate(homes) if hk == h][:3]
        assert len(same) == 3
        kv.batch_put(same, [7, 8, 9])
        found, slot = kv.locate(same)
        assert found.all()
        assert slot.tolist() == [(h + i) % kv.capacity for i in range(3)]
        assert kv.batch_get(same).tolist() == [7, 8, 9]

    def test_record_times_strictly_increase(self, kv):
        kv.batch_put(["a"], [1])
        plan = kv.plan(gets=["a"], puts=["b"], deletes=["missing"])
        times = [kv.clock]
        kv.batch_get(["a"], plan=plan)
        times.append(kv.clock)
        kv.batch_put(["b"], [2], plan=plan)
        times.append(kv.clock)
        # a delete that writes nothing still ticks the clock
        assert kv.batch_delete(["missing"], plan=plan) == 0
        times.append(kv.clock)
        assert times == sorted(set(times))

    def test_plan_runs_get_put_delete_in_order_once(self, kv):
        plan = kv.plan(gets=["a"], puts=["a"], deletes=["a"])
        kv.batch_put(["a"], [1], plan=plan)
        with pytest.raises(ValueError, match="order"):
            kv.batch_get(["a"], plan=plan)
        with pytest.raises(ValueError, match="order"):
            kv.batch_put(["a"], [1], plan=plan)
        assert kv.batch_delete(["a"], plan=plan) == 1

    def test_plan_is_checked_against_the_call(self, kv):
        other = ParallelKVStore(PPAdapter(2, 5), seed=1)
        with pytest.raises(ValueError, match="another store"):
            kv.batch_get(["a"], plan=other.plan(gets=["a"]))
        with pytest.raises(ValueError, match="differ"):
            kv.batch_get(["a", "b"], plan=kv.plan(gets=["a"]))
        with pytest.raises(ValueError, match="duplicate"):
            kv.plan(deletes=["a", "a"])

    @pytest.mark.parametrize("seed", range(4))
    def test_windowed_probe_matches_a_slot_by_slot_walk(self, seed):
        # a small, busy table: long chains, tombstones and wrap-around
        kv = ParallelKVStore(PPAdapter(2, 3), seed=seed)
        rng = np.random.default_rng(seed)
        live = rng.choice(500, size=36, replace=False).tolist()
        kv.batch_put(live, rng.integers(0, 1 << 20, size=36))
        kv.batch_delete(live[::3])
        cells = kv._read_vars(2 * np.arange(kv.capacity))
        vals = kv._read_vars(2 * np.arange(kv.capacity) + 1)
        absent = rng.choice(np.arange(500, 900), 8, replace=False)
        keys = live + absent.tolist()
        fps = kv.fingerprints(keys)
        found, slot, claim, value = kv._probe(fps, np.ones(fps.size, bool))
        for i, (fp, h) in enumerate(zip(fps, kv._home(fps))):
            want = (False, -1, -1, -1)
            for j in range(kv.capacity):
                s = (int(h) + j) % kv.capacity
                if cells[s] == fp:
                    want = (True, s, want[2], int(vals[s]))
                    break
                if cells[s] == -1:
                    want = (False, -1, s if want[2] < 0 else want[2], -1)
                    break
                if cells[s] == TOMBSTONE and want[2] < 0:
                    want = (False, -1, s, -1)
            got = (bool(found[i]), int(slot[i]), int(claim[i]), int(value[i]))
            assert got == want, keys[i]
