"""Unit tests of the deterministic service core: admission, fairness,
round semantics, arbitration, and quorum-loss mapping."""

import gc
import weakref

import numpy as np
import pytest

import repro.obs as obs
from repro.service.batcher import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    RoundResult,
    ServiceConfig,
    ServiceCore,
)
from repro.service.errors import (
    STATUS_LOST,
    STATUS_OK,
    Backpressure,
    PipelineFull,
)

#: small shard schemes (PPAdapter(2, 3): N=63, M=84) keep rounds cheap
_SMALL = dict(q=2, n=3, watchdog=False)


def _core(**kw) -> ServiceCore:
    return ServiceCore(ServiceConfig(**{**_SMALL, **kw}))


def _result_of(res: RoundResult, session: int) -> tuple[int, int]:
    i = int(np.nonzero(np.asarray(res.session) == session)[0][0])
    return int(res.status[i]), int(res.value[i])


class TestRoundSemantics:
    def test_put_then_get_across_rounds(self):
        with _core() as core:
            a, b = core.register_sessions(2)
            core.submit(a, OP_PUT, 5, 42)
            core.run_round()
            core.submit(b, OP_GET, 5)
            res = core.run_round()
            assert _result_of(res, b) == (STATUS_OK, 42)

    def test_get_sees_pre_round_state(self):
        with _core() as core:
            a, b = core.register_sessions(2)
            core.submit(a, OP_PUT, 9, 100)
            core.submit(b, OP_GET, 9)
            res = core.run_round()
            # both in one round: the get observes the pre-round value
            assert _result_of(res, b) == (STATUS_OK, -1)
            assert _result_of(res, a) == (STATUS_OK, 100)

    def test_same_key_put_conflict_largest_value_wins(self):
        with _core() as core:
            a, b, c = core.register_sessions(3)
            core.submit(a, OP_PUT, 7, 10)
            core.submit(b, OP_PUT, 7, 30)
            res = core.run_round()
            # losers are acked OK with their own value (combined write)
            assert _result_of(res, a) == (STATUS_OK, 10)
            assert _result_of(res, b) == (STATUS_OK, 30)
            core.submit(c, OP_GET, 7)
            assert _result_of(core.run_round(), c) == (STATUS_OK, 30)

    def test_put_tie_lowest_session_wins(self):
        with _core() as core:
            a, b, c = core.register_sessions(3)
            # same value: the duplicate write collapses to one winner --
            # indistinguishable by value, but exercise the tiebreak path
            core.submit(b, OP_PUT, 3, 50)
            core.submit(a, OP_PUT, 3, 50)
            core.run_round()
            core.submit(c, OP_GET, 3)
            assert _result_of(core.run_round(), c) == (STATUS_OK, 50)

    def test_delete_runs_after_put_in_same_round(self):
        with _core() as core:
            a, b, c = core.register_sessions(3)
            core.submit(a, OP_PUT, 11, 5)
            core.submit(b, OP_DELETE, 11)
            res = core.run_round()
            assert _result_of(res, b)[0] == STATUS_OK
            core.submit(c, OP_GET, 11)
            assert _result_of(core.run_round(), c) == (STATUS_OK, -1)

    def test_empty_queue_round_returns_none(self):
        with _core() as core:
            assert core.run_round() is None


class TestAdmission:
    def test_per_session_fairness_one_request_per_round(self):
        with _core(pipeline_depth=4) as core:
            (a,) = core.register_sessions(1)
            for i in range(3):
                core.submit(a, OP_PUT, 20 + i, i + 1)
            sizes = [core.run_round().admitted for _ in range(3)]
            assert sizes == [1, 1, 1]

    def test_round_capacity_truncates(self):
        with _core(round_capacity=4) as core:
            ids = core.register_sessions(10)
            for s in ids:
                core.submit(int(s), OP_PUT, int(s), 1)
            assert core.run_round().admitted == 4
            assert core.run_round().admitted == 4
            assert core.run_round().admitted == 2

    def test_admission_is_fifo_oldest_first(self):
        with _core(round_capacity=2) as core:
            ids = core.register_sessions(4)
            for s in ids:
                core.submit(int(s), OP_GET, 0)
            first = core.run_round()
            assert sorted(np.asarray(first.session).tolist()) == [0, 1]

    def test_pipeline_full_raises(self):
        with _core() as core:
            (a,) = core.register_sessions(1)
            core.submit(a, OP_GET, 0)
            with pytest.raises(PipelineFull):
                core.submit(a, OP_GET, 1)

    def test_pipeline_depth_two_allows_two_in_flight(self):
        with _core(pipeline_depth=2) as core:
            (a,) = core.register_sessions(1)
            core.submit(a, OP_PUT, 1, 1)
            core.submit(a, OP_PUT, 2, 2)
            with pytest.raises(PipelineFull):
                core.submit(a, OP_PUT, 3, 3)

    def test_backpressure_raises_when_queue_full(self):
        with _core(max_pending=1) as core:
            a, b = core.register_sessions(2)
            core.submit(a, OP_GET, 0)
            with pytest.raises(Backpressure):
                core.submit(b, OP_GET, 1)

    def test_submit_batch_masks_over_depth_and_room(self):
        with _core(max_pending=2, pipeline_depth=1) as core:
            ids = core.register_sessions(3)
            # two requests from session 0: the second exceeds depth
            ok = core.submit_batch(
                np.asarray([0, 0, 1, 2]),
                np.full(4, OP_GET),
                np.arange(4),
                np.zeros(4),
            )
            # depth cut drops the duplicate; room cut keeps a FIFO
            # prefix of the remainder (max_pending=2)
            assert ok.tolist() == [True, False, True, False]
            assert core.rejected == 2
            del ids

    def test_submit_batch_rejects_unregistered_session(self):
        with _core() as core:
            core.register_sessions(1)
            with pytest.raises(ValueError, match="unregistered"):
                core.submit_batch(
                    np.asarray([5]), np.asarray([OP_GET]),
                    np.asarray([0]), np.asarray([0]),
                )

    def test_submit_batch_empty_and_mismatched(self):
        with _core() as core:
            assert core.submit_batch(
                np.empty(0), np.empty(0), np.empty(0), np.empty(0)
            ).size == 0
            with pytest.raises(ValueError, match="equal length"):
                core.submit_batch(
                    np.asarray([0]), np.asarray([OP_GET]),
                    np.asarray([0, 1]), np.asarray([0]),
                )

    def test_register_sessions_rejects_negative(self):
        with _core() as core:
            with pytest.raises(ValueError):
                core.register_sessions(-1)


class TestQuorumLossMapping:
    def test_lost_batch_statuses_and_value_echo(self):
        with _core() as core:
            ids = core.register_sessions(8)
            keys = np.arange(100, 108)
            vals = np.arange(1, 9) * 11
            for s, k, v in zip(ids, keys, vals):
                core.submit(int(s), OP_PUT, int(k), int(v))
            # kill every module on every shard: all quorums lost
            for s in range(core.config.n_shards):
                n_mod = core.store.shards[s].scheme.N
                core.store.set_failed_modules(s, np.arange(n_mod))
            res = core.run_round()
            assert (np.asarray(res.status) == STATUS_LOST).all()
            assert res.lost == 8
            # lost puts still echo the attempted value (oracle food)
            order = np.argsort(np.asarray(res.key))
            assert np.asarray(res.value)[order].tolist() == vals.tolist()
            assert core.lost == 8
            # recovery: clear the faults, resubmit, all served
            for s in range(core.config.n_shards):
                core.store.set_failed_modules(s, None)
            for s, k, v in zip(ids, keys, vals):
                core.submit(int(s), OP_PUT, int(k), int(v))
            assert core.run_round().lost == 0

    def test_lost_gets_and_deletes(self):
        with _core() as core:
            a, b = core.register_sessions(2)
            core.submit(a, OP_PUT, 55, 9)
            core.run_round()
            for s in range(core.config.n_shards):
                n_mod = core.store.shards[s].scheme.N
                core.store.set_failed_modules(s, np.arange(n_mod))
            core.submit(a, OP_GET, 55)
            core.submit(b, OP_DELETE, 55)
            res = core.run_round()
            assert (np.asarray(res.status) == STATUS_LOST).all()


class TestAccounting:
    def test_latency_and_stats(self):
        with _core() as core:
            ids = core.register_sessions(4)
            for s in ids:
                core.submit(int(s), OP_PUT, int(s), 1)
            core.run_round()
            lat = core.latency_summary()
            assert lat["count"] == 4
            assert 0 <= lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
            st = core.stats()
            assert st["rounds"] == 1
            assert st["completed"] == 4
            assert st["pending"] == 0
            assert "watch" not in st  # watchdog off in _SMALL

    def test_latency_summary_empty(self):
        with _core() as core:
            assert core.latency_summary() == {"count": 0}

    def test_drain_runs_until_empty(self):
        with _core(round_capacity=2) as core:
            ids = core.register_sessions(5)
            for s in ids:
                core.submit(int(s), OP_GET, 0)
            out = core.drain()
            assert [r.admitted for r in out] == [2, 2, 1]
            assert core.pending == 0

    def test_drain_respects_max_rounds(self):
        with _core(round_capacity=1) as core:
            ids = core.register_sessions(3)
            for s in ids:
                core.submit(int(s), OP_GET, 0)
            assert len(core.drain(max_rounds=2)) == 2
            assert core.pending == 1


class TestLifecycle:
    def test_open_installs_and_close_restores_bus(self):
        before = obs.bus()
        core = ServiceCore(ServiceConfig(q=2, n=3, watchdog=True))
        core.open()
        assert obs.bus() is not None
        assert obs.bus() is not before
        assert core.watchdog is not None
        core.close()
        assert obs.bus() is before

    def test_open_and_close_are_idempotent(self):
        core = ServiceCore(ServiceConfig(q=2, n=3, watchdog=True))
        core.open()
        core.open()
        core.close()
        core.close()

    def test_closed_watchdog_freed_without_cycle_collector(self):
        # nothing the watchdog owns may point back at it, so dropping a
        # closed service frees its whole watchdog state at once
        gc.disable()
        try:
            core = ServiceCore(ServiceConfig(q=2, n=3, watchdog=True))
            with core:
                (a,) = core.register_sessions(1)
                core.submit(a, OP_PUT, 1, 2)
                core.run_round()
            dog = weakref.ref(core.watchdog)
            del core
            assert dog() is None
        finally:
            gc.enable()

    def test_watchdog_stats_surface(self):
        with ServiceCore(ServiceConfig(q=2, n=3, watchdog=True)) as core:
            (a,) = core.register_sessions(1)
            core.submit(a, OP_PUT, 1, 2)
            core.run_round()
            watch = core.stats()["watch"]
            assert watch["violations"] == 0
            assert watch["events_dropped"] == 0
