"""Tests for the streaming checker, the watchdog, and the online canary.

The contract under test: the incremental windowed checker must agree
with the whole-trace batch checker on every verdict (same violations,
pinned to the same (processor, round, variable)) while holding state
bounded by the window, not the trace length -- and the watchdog built on
it must flag the q/2+1 stale-majority attack while the run is still
going.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.conformance.checker import ConsistencyChecker
from repro.conformance.recorder import KvOp, MemOp, record
from repro.conformance.streaming import (
    SCHEME_KEYS,
    StreamingChecker,
    Watchdog,
    run_watchdog_canary,
    scheme_by_key,
    stream_fuzz,
)
from repro.faults.attacks import build_stale_majority, payload_values
from repro.obs.record import BatchRecord, KvRecord
from repro.obs.stream import EventBus
from repro.workloads.generators import op_batches
from tests.obs.test_stream import batch_record


@pytest.fixture(autouse=True)
def clean_bus():
    obs.set_bus(None)
    yield
    obs.set_bus(None)


def mem(op, var, value, round_, proc=0, lost=False, seq=0):
    return MemOp(
        op=op, var=var, value=value, round=round_, proc=proc, phase=0,
        lost=lost, seq=seq,
    )


def violation_keys(report):
    return sorted(
        (v.kind, v.proc, v.round, int(v.var)) for v in report.violations
    )


class TestStreamingChecker:
    def test_window_validated(self):
        with pytest.raises(ValueError, match="window"):
            StreamingChecker(window=0)

    def test_clean_sequence(self):
        sc = StreamingChecker(window=2)
        sc.feed_mem(mem("write", 7, 1, 1, seq=1))
        sc.feed_mem(mem("read", 7, 1, 2, seq=2))
        rep = sc.finish()
        assert rep.ok
        assert sc.retired_through == sc.high == 2

    def test_stale_read_flagged_when_round_closes(self):
        hits = []
        sc = StreamingChecker(window=2, on_violation=hits.append)
        sc.feed_mem(mem("write", 7, 1, 1, seq=1))
        sc.feed_mem(mem("write", 7, 2, 2, seq=2))
        sc.feed_mem(mem("read", 7, 1, 3, proc=4, seq=3))  # stale answer
        assert not hits  # round 3 still open
        sc.feed_mem(mem("write", 9, 5, 6, seq=4))  # advances past 3+window
        assert len(hits) == 1
        v = hits[0]
        assert (v.kind, v.proc, v.round, int(v.var)) == ("stale-read", 4, 3, 7)

    def test_out_of_order_within_window_is_resorted(self):
        # reads of a round arriving before its writes must still check
        # against that round's writes (arbitration order, not arrival)
        sc = StreamingChecker(window=4)
        sc.feed_mem(mem("read", 3, 8, 2, seq=5))
        sc.feed_mem(mem("write", 3, 8, 2, seq=4))
        sc.feed_mem(mem("write", 3, 7, 1, seq=1))
        assert sc.finish().ok

    def test_late_arrival_counted_not_checked(self):
        sc = StreamingChecker(window=1)
        sc.feed_mem(mem("write", 1, 1, 1, seq=1))
        sc.feed_mem(mem("write", 1, 2, 5, seq=2))  # closes rounds <= 4
        assert sc.retired_through == 4
        sc.feed_mem(mem("read", 1, 999, 2, seq=3))  # round 2 already closed
        assert sc.late_dropped == 1
        assert sc.finish().ok

    def test_kv_stream(self):
        sc = StreamingChecker(window=2)
        sc.feed_kv(KvOp(op="put", key="a", value=1, round=1, seq=1))
        sc.feed_kv(KvOp(op="get", key="a", value=2, round=2, seq=2))
        rep = sc.finish()
        assert not rep.ok
        assert rep.violations[0].kind == "kv-stale-get"

    def test_state_retired_behind_window(self):
        # 500 rewrites of one variable: past-value history older than
        # the window must be retired, so peak state stays near the
        # window size, not the write count
        sc = StreamingChecker(window=4)
        for t in range(1, 500):
            sc.feed_mem(mem("write", 1, t, t, seq=t))
        assert sc.peak_state < 4 * sc.window
        assert sc.finish().ok

    def test_verdict_independent_of_window(self):
        ops = [
            mem("write", 1, 10, 1, seq=1),
            mem("write", 1, 20, 2, seq=2),
            mem("read", 1, 10, 30, proc=2, seq=3),  # stale, far later
        ]
        for w in (1, 4, 64):
            sc = StreamingChecker(window=w)
            for o in ops:
                sc.feed_mem(o)
            rep = sc.finish()
            assert not rep.ok, f"window={w} missed the violation"
            v = rep.violations[0]
            assert (v.proc, v.round, int(v.var)) == (2, 30, 1)
        # naming precision: inside the window the old value is *named*
        # stale; far outside it the divergence degrades to phantom-read
        wide = StreamingChecker(window=64)
        narrow = StreamingChecker(window=1)
        for o in ops:
            wide.feed_mem(o)
            narrow.feed_mem(o)
        assert wide.finish().violations[0].kind == "stale-read"
        assert narrow.finish().violations[0].kind == "phantom-read"


def replay_recorded(scheme, total_ops, seed, max_batch=32):
    """One seeded workload -> (recorded trace ops, scheme)."""
    plan = op_batches(
        scheme.M, total_ops, seed=seed, max_batch=min(max_batch, scheme.M)
    )
    store = scheme.make_store()
    with record() as rec:
        for t, (kind, idx) in enumerate(plan, start=1):
            if kind == "write":
                scheme.write(
                    idx, values=payload_values(t, idx), store=store, time=t
                )
            else:
                scheme.read(idx, store=store, time=t)
    return rec.mem_ops()


class TestBatchParity:
    """The streaming checker's acceptance bar: identical violation sets
    (kind, proc, round, var) to the batch checker on the same trace."""

    @pytest.mark.parametrize("key", SCHEME_KEYS)
    def test_parity_on_clean_fuzz(self, key):
        scheme = scheme_by_key(key)
        ops = replay_recorded(scheme, 2000, seed=11)
        assert len(ops) >= 2000
        batch = ConsistencyChecker().check_mem_ops(ops)
        sc = StreamingChecker(window=8)
        for o in ops:
            sc.feed_mem(o)
        stream = sc.finish()
        assert violation_keys(stream) == violation_keys(batch)
        assert stream.ok and batch.ok
        assert sc.peak_state < len(ops)

    def test_parity_on_violating_trace(self):
        # the stale-majority attack trace: both checkers must flag the
        # exact same (kind, proc, round, var) set -- and it is non-empty
        attack = build_stale_majority(seed=0)
        with record() as rec:
            attack.seed_history()
            attack.go_stale()
            res = attack.read(time=3)
            for t in range(4, 10):
                attack.write_tail(time=t, values=payload_values(t, attack.idx))
        expected, silent_wrong = attack.victim_verdict(res, time=3)
        assert silent_wrong > 0
        ops = rec.mem_ops()
        batch = ConsistencyChecker().check_mem_ops(ops)
        sc = StreamingChecker(window=8)
        for o in ops:
            sc.feed_mem(o)
        stream = sc.finish()
        keys = violation_keys(stream)
        assert keys == violation_keys(batch)
        assert {("stale-read", p, r, v) for p, r, v in expected} <= set(keys)

    def test_parity_shuffled_arrival_within_rounds(self):
        # bus arrival order within a round is arbitrary; parity must
        # survive a deterministic scramble
        scheme = scheme_by_key("pp2")
        ops = replay_recorded(scheme, 600, seed=5)
        batch = ConsistencyChecker().check_mem_ops(ops)
        scrambled = sorted(ops, key=lambda o: (o.round, (o.seq * 7919) % 104729))
        sc = StreamingChecker(window=8)
        for o in scrambled:
            sc.feed_mem(o)
        assert violation_keys(sc.finish()) == violation_keys(batch)


class TestBoundedMemory:
    def test_million_ops_bounded_state(self):
        # >= 10^6 synthetic ops: peak retained state must stay under a
        # fixed window budget, orders of magnitude below the op count
        n_vars = 256
        window = 8
        sc = StreamingChecker(window=window)
        seq = 0
        total = 1_000_000
        rounds = total // n_vars
        current = [0] * n_vars
        for t in range(1, rounds + 1):
            write_round = t % 2 == 1
            for v in range(n_vars):
                seq += 1
                if write_round:
                    current[v] = t * n_vars + v
                    sc.feed_mem(mem("write", v, current[v], t, proc=v, seq=seq))
                else:
                    sc.feed_mem(mem("read", v, current[v], t, proc=v, seq=seq))
        assert sc.events_fed == rounds * n_vars
        assert sc.events_fed >= 1_000_000 - n_vars
        rep = sc.finish()
        assert rep.ok
        # budget: open-window buffer + ~2 windows of per-var past state
        budget = n_vars * 2 * window
        assert sc.peak_state <= budget, (
            f"peak state {sc.peak_state} busts the window budget {budget}"
        )


class TestWatchdog:
    def test_watchdog_flags_protocol_violation_via_bus(self):
        attack = build_stale_majority(seed=1)
        bus = EventBus()
        dog = Watchdog(bus, window=4)
        prev = obs.set_bus(bus)
        try:
            attack.seed_history()
            attack.go_stale()
            res = attack.read(time=3)
            for t in range(4, 10):
                attack.write_tail(time=t, values=payload_values(t, attack.idx))
                dog.poll()
        finally:
            obs.set_bus(prev)
        dog.finish()
        expected, silent_wrong = attack.victim_verdict(res, time=3)
        assert silent_wrong > 0
        assert dog.violations_seen >= silent_wrong
        assert not dog.ok
        snap = dog.registry.snapshot()
        assert snap["watch.violations"]["value"] == dog.violations_seen
        assert snap["watch.batches"]["value"] > 0

    def test_poll_feeds_records_in_arbitration_order(self):
        # the order a record's requests reach the checker shows only in
        # verdicts: a round's reads after its writes whatever the
        # arrival order, writes and kv ops in arrival order, request i
        # of a record as processor i
        def rec(op, time, values, lost=0):
            return replace(
                batch_record(op=op, time=time, requests=len(values),
                             lost=lost),
                values=np.array(values),
            )

        def kv(op, keys, values):
            return KvRecord(op=op, keys=keys, values=np.array(values), time=2)

        bus = EventBus()
        dog = Watchdog(bus, window=1)
        for r in (
            rec("read", 1, [5, 6, 9]),   # arrives before its writes
            rec("write", 1, [5, 6, 7]),
            kv("get", ("a",), [-1]),     # arrives before the put
            kv("put", ("a", 7), [5, 6]),
            kv("get", (7,), [6]),
            rec("write", 2, [10], lost=1),
            rec("write", 2, [11]),       # clears the lost write's taint
            rec("read", 3, [10]),
            batch_record(op="count", time=3),  # moves no memory
        ):
            bus.publish(type(r).EVENT, {"record": r})
        bus.publish("other.event", {"record": None})  # not subscribed
        assert dog.poll() == 9
        assert dog.checker.events_fed == 3 + 3 + 1 + 2 + 1 + 1 + 1 + 1
        assert dog.health.batches == 5  # the count batch is not health
        phantom = ("phantom-read", 2, 1, 2)
        first, at_round = dog.first_violation
        assert (first.kind, first.proc, first.round, int(first.var)) == phantom
        assert at_round == 2  # round 1 closed when round 2 arrived
        assert violation_keys(dog.finish()) == [
            phantom, ("stale-read", 0, 3, 0),
        ]
        assert dog.violations_seen == 2
        assert dog.registry.snapshot()["watch.violations"]["value"] == 2

    def test_bounded_queue_drops_are_visible(self):
        bus = EventBus()
        dog = Watchdog(bus, queue_capacity=4)
        for t in range(1, 11):
            bus.publish(
                BatchRecord.EVENT, {"record": batch_record(time=t)}
            )
        dog.poll()
        assert dog.subscription.dropped == 6
        snap = dog.registry.snapshot()
        assert snap["watch.events_dropped"]["value"] == 6

    def test_detach_stops_delivery(self):
        bus = EventBus()
        dog = Watchdog(bus)
        dog.detach()
        bus.publish(BatchRecord.EVENT, {"record": batch_record()})
        assert dog.poll() == 0
        assert bus.n_subscriptions == 0

    def test_snapshot_reflects_health(self):
        bus = EventBus()
        dog = Watchdog(bus)
        bus.publish(BatchRecord.EVENT, {"record": batch_record(
            time=6, requests=12, lost=1, degraded=2, worst_dead=1,
        )})
        dog.poll()
        snap = dog.snapshot()
        assert snap.round == 6
        assert snap.requests == 12
        assert snap.lost == 1 and snap.degraded == 2
        assert snap.min_quorum_margin == 0
        assert dog.snapshots == [snap]
        assert snap.to_dict()["round"] == 6


class TestOnlineCanary:
    def test_attack_detected_mid_run_and_control_clean(self):
        result = run_watchdog_canary(seed=0, window=8)
        assert result.silent_wrong_reads > 0
        # flagged while the run was still issuing batches
        assert result.detected_at_round is not None
        assert result.detected_at_round < result.last_round
        # pinned to the exact (processor, round, variable) set
        assert set(result.expected) <= result.flagged
        assert result.detected_online
        # <= q/2 control: zero violations, visibly degraded
        assert result.control_violations == 0
        assert result.control_degraded > 0
        assert result.control_clean
        assert result.ok
        d = result.to_dict()
        assert d["ok"] and d["schema"] == 1
        assert d["detected_at_round"] == result.detected_at_round

    def test_restores_previous_bus(self):
        sentinel = EventBus()
        obs.set_bus(sentinel)
        run_watchdog_canary(seed=0)
        assert obs.bus() is sentinel


class TestStreamFuzz:
    def test_clean_run_and_memory_bound(self):
        seen = []
        result = stream_fuzz(
            scheme="pp2", total_ops=1200, seed=2, window=8,
            snapshot_every=25, on_snapshot=seen.append,
        )
        assert result.ok
        assert result.events >= 1200
        assert result.events_dropped == 0
        assert result.peak_state < result.events
        assert result.snapshots and seen
        assert "watch.batches" in result.metrics
        d = result.to_dict()
        assert d["ok"] and d["schema"] == 1

    def test_uw_fault_free_run_is_clean(self):
        # a fault-free run flagged a stale read at (6, 85, 276) while
        # the hash repair salt was shared across each batch
        result = stream_fuzz(scheme="uw", total_ops=3000, seed=0)
        assert result.report.n_violations == 0
        assert result.ok

    def test_leaves_no_bus_installed(self):
        stream_fuzz(scheme="pp2", total_ops=200, seed=0)
        assert obs.bus() is None
        assert not obs.enabled()

    def test_scheme_keys_cover_conformance_set(self):
        from repro.cli import _WATCH_SCHEMES
        from repro.conformance.differential import conformance_schemes

        assert tuple(_WATCH_SCHEMES) == SCHEME_KEYS
        assert len(SCHEME_KEYS) == len(conformance_schemes())
        for key in SCHEME_KEYS:
            assert scheme_by_key(key).M > 0

    def test_unknown_scheme_key_raises(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            scheme_by_key("nope")
