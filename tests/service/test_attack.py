"""Stale-majority attack: the silent fault only the watchdog can see.

Rolling ``q/2 + 1`` copies of a victim's value variable back to a
coherent older epoch and crashing the fresh copies makes every read
quorum serve the stale value with a healthy status.  These tests mount
the attack directly on a sharded store, prove the protocol is fooled,
prove :meth:`heal` undoes it -- and then prove the service-level soak
flags the phantom read mid-run at exact coordinates.
"""

import numpy as np

from repro.service.attack import poison_stale_majority
from repro.service.batcher import ServiceConfig
from repro.service.loadgen import LoadConfig, run_load
from repro.service.shards import ShardedKV


def _get(store, k):
    """One key's value through a gets-only shard round."""
    r = store.shard_round(store.route_one(int(k)), gets=[int(k)])
    return int(r.got[0])


def _seeded_store(n_keys=12):
    store = ShardedKV(n_shards=2, q=2, n=3, seed=0)
    keys = np.arange(100, 100 + n_keys, dtype=np.int64)
    for s in range(store.n_shards):
        mine = keys[store.route_ints(keys) == s]
        store.shard_put(s, mine.tolist(), mine * 7)
    return store, keys


class TestMount:
    def test_stale_value_served_silently(self):
        store, keys = _seeded_store()
        atk = poison_stale_majority(store, keys[:4], seed=0)
        assert atk.victims.size == 4
        assert atk.cells_rolled_back > 0
        for k, stale, fresh in zip(
            atk.victims, atk.stale_values, atk.fresh_values
        ):
            got = _get(store, k)
            # healthy read, wrong answer -- the protocol cannot tell
            assert got == stale != fresh

    def test_unpoisoned_keys_unaffected(self):
        store, keys = _seeded_store()
        atk = poison_stale_majority(store, keys[:4], seed=0)
        assert atk.victims.size
        for k in keys[4:]:
            assert _get(store, k) == int(k) * 7

    def test_absent_keys_are_skipped(self):
        store, _ = _seeded_store()
        atk = poison_stale_majority(
            store, np.asarray([999_999]), seed=0
        )
        assert atk.victims.size == 0
        assert atk.cells_rolled_back == 0

    def test_heal_restores_fresh_values_and_is_idempotent(self):
        store, keys = _seeded_store()
        atk = poison_stale_majority(store, keys[:5], seed=1)
        atk.heal(store)
        atk.heal(store)  # no-op second time
        assert atk.healed
        for k in atk.victims:
            assert _get(store, k) == int(k) * 7

    def test_expected_victims_are_checker_coordinates(self):
        store, keys = _seeded_store()
        atk = poison_stale_majority(store, keys[:3], seed=0)
        assert atk.expected_victims() == {
            str(int(k)) for k in atk.victims
        }


class TestServedSoak:
    def test_watchdog_flags_phantom_read_mid_run(self):
        cfg = LoadConfig(
            clients=120, ops_per_client=4, keyspace=64, mix="hotkey",
            hot=8, seed=3, fault="stale", attack_round=2,
            attack_victims=3, heal_after=4, get_fraction=0.6,
            delete_fraction=0.0,
        )
        rep = run_load(
            cfg,
            ServiceConfig(q=2, n=3, round_capacity=64, max_pending=512),
        )
        assert rep.unfinished_clients == 0
        # flagged online, while the run was still going
        det = rep.detection
        assert det is not None
        assert det["kind"] == "phantom-read"
        assert det["service_round"] >= 2
        assert det["service_round"] < rep.rounds  # mid-run, not post hoc
        # pinned to exact checker coordinates
        assert isinstance(det["proc"], int)
        assert isinstance(det["round"], int)
        assert det["var"].lstrip("-").isdigit()
        assert rep.violations > 0
        assert rep.first_violation is not None

    def test_detection_is_seed_reproducible(self):
        cfg = LoadConfig(
            clients=80, ops_per_client=3, keyspace=48, mix="hotkey",
            hot=6, seed=7, fault="stale", attack_round=1,
            attack_victims=2, heal_after=3, get_fraction=0.6,
            delete_fraction=0.0,
        )
        svc = dict(q=2, n=3, round_capacity=48, max_pending=512)
        a = run_load(cfg, ServiceConfig(**svc)).detection
        b = run_load(cfg, ServiceConfig(**svc)).detection
        assert a is not None
        assert a == b


class TestQuorumLossAtAttackBoundary:
    """run_load owns the QuorumLostError policy at the attack boundary.

    Regression (found by lint F3): a quorum loss inside the attack
    mount or heal used to escape ``run_load`` entirely, crashing the
    soak instead of retrying on the next round.
    """

    def test_run_completes_when_mount_keeps_losing_quorum(self, monkeypatch):
        from repro.faults.report import QuorumLostError
        from repro.service import loadgen

        mounts = {"n": 0}

        def broken_mount(store, keys, seed=0, stale_time=1):
            mounts["n"] += 1
            raise QuorumLostError("mount: no read quorum")

        monkeypatch.setattr(loadgen, "poison_stale_majority", broken_mount)
        cfg = LoadConfig(
            clients=40, ops_per_client=3, keyspace=32, mix="hotkey",
            hot=4, seed=3, fault="stale", attack_round=1,
            get_fraction=0.6, delete_fraction=0.0,
        )
        rep = run_load(
            cfg, ServiceConfig(q=2, n=3, round_capacity=32, max_pending=256)
        )
        assert rep.unfinished_clients == 0
        assert mounts["n"] > 1  # retried, not abandoned
        assert rep.detection is None  # nothing ever mounted

    def test_heal_retries_after_transient_quorum_loss(self, monkeypatch):
        from repro.faults.report import QuorumLostError
        from repro.service.attack import StalePoisoning

        real_heal = StalePoisoning.heal
        heals = {"n": 0}

        def flaky_heal(self, store):
            heals["n"] += 1
            if heals["n"] <= 2:
                raise QuorumLostError("heal: transient quorum loss")
            real_heal(self, store)

        monkeypatch.setattr(StalePoisoning, "heal", flaky_heal)
        mounted = {}
        real_mount = poison_stale_majority

        def record_mount(store, keys, seed=0, stale_time=1):
            atk = real_mount(store, keys, seed=seed, stale_time=stale_time)
            mounted["atk"] = atk
            return atk

        from repro.service import loadgen

        monkeypatch.setattr(loadgen, "poison_stale_majority", record_mount)
        cfg = LoadConfig(
            clients=120, ops_per_client=4, keyspace=64, mix="hotkey",
            hot=8, seed=3, fault="stale", attack_round=2,
            attack_victims=3, heal_after=2, get_fraction=0.6,
            delete_fraction=0.0,
        )
        rep = run_load(
            cfg, ServiceConfig(q=2, n=3, round_capacity=64, max_pending=512)
        )
        assert rep.unfinished_clients == 0
        assert heals["n"] >= 3  # two losses absorbed, then success
        assert mounted["atk"].healed  # retry loop finished the heal
