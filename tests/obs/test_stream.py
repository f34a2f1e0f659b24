"""Tests for the bounded event bus and the health aggregator."""

import numpy as np
import pytest

from repro import obs
from repro.core.protocol import PhaseTrace
from repro.faults.report import DEGRADED, LOST, FaultReport
from repro.mpc.memory import SharedCopyStore
from repro.mpc.stats import MPCStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.record import BatchRecord
from repro.obs.stream import DEFAULT_CAPACITY, EventBus, HealthAggregator, Subscription


class TestSubscription:
    def test_matches_all_when_names_none(self):
        sub = Subscription()
        assert sub.matches("anything")
        assert sub.names is None

    def test_matches_named_only(self):
        sub = Subscription(names={"mem.op"})
        assert sub.matches("mem.op")
        assert not sub.matches("kv.op")

    def test_push_drain_fifo(self):
        sub = Subscription()
        sub.push({"a": 1})
        sub.push({"a": 2})
        assert len(sub) == 2
        assert [e["a"] for e in sub.drain()] == [1, 2]
        assert len(sub) == 0

    def test_drain_limit(self):
        sub = Subscription()
        for i in range(5):
            sub.push({"i": i})
        assert [e["i"] for e in sub.drain(limit=2)] == [0, 1]
        assert len(sub) == 3

    def test_full_queue_drops_and_counts(self):
        sub = Subscription(capacity=2)
        assert sub.push({}) and sub.push({})
        assert not sub.push({})
        assert sub.dropped == 1
        assert sub.delivered == 2
        assert len(sub) == 2  # queue never exceeds capacity

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            Subscription(capacity=0)

    def test_repr_mentions_drops(self):
        sub = Subscription(names={"x"}, capacity=1)
        sub.push({})
        sub.push({})
        assert "dropped=1" in repr(sub)


class TestEventBus:
    def test_publish_stamps_name_and_monotonic_seq(self):
        bus = EventBus()
        sub = bus.subscribe()
        bus.publish("a", {"v": 1})
        bus.publish("b", {"v": 2})
        events = sub.drain()
        assert [e["name"] for e in events] == ["a", "b"]
        assert [e["seq"] for e in events] == [1, 2]

    def test_publish_does_not_mutate_caller_fields(self):
        bus = EventBus()
        sub = bus.subscribe()
        fields = {"v": 1}
        bus.publish("a", fields)
        assert fields == {"v": 1}
        assert sub.drain()[0]["v"] == 1

    def test_fanout_respects_name_filters(self):
        bus = EventBus()
        mem = bus.subscribe(names={"mem.op"})
        every = bus.subscribe()
        bus.publish("mem.op", {})
        bus.publish("kv.op", {})
        assert len(mem) == 1
        assert len(every) == 2

    def test_full_subscriber_drops_visibly_never_blocks(self):
        bus = EventBus()
        slow = bus.subscribe(capacity=2)
        fast = bus.subscribe()
        for _ in range(5):
            bus.publish("e", {})
        assert len(slow) == 2
        assert slow.dropped == 3
        assert bus.dropped == 3
        assert len(fast) == 5
        assert bus.published == 5

    def test_unsubscribe_stops_delivery_and_ignores_unknown(self):
        bus = EventBus()
        sub = bus.subscribe()
        bus.unsubscribe(sub)
        bus.unsubscribe(sub)  # second remove is a no-op
        bus.publish("e", {})
        assert len(sub) == 0
        assert bus.n_subscriptions == 0

    def test_capacity_defaults_and_override(self):
        bus = EventBus(capacity=4)
        assert bus.subscribe().capacity == 4
        assert bus.subscribe(capacity=9).capacity == 9
        assert Subscription().capacity == DEFAULT_CAPACITY

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            EventBus(capacity=0)


class TestSwitchboard:
    def test_set_bus_flips_enabled(self):
        assert not obs.enabled()
        prev = obs.set_bus(EventBus())
        assert prev is None
        assert obs.enabled()
        assert obs.set_bus(None) is not None
        assert not obs.enabled()

    def test_publish_reaches_bus_without_tracer(self):
        bus = EventBus()
        sub = bus.subscribe()
        obs.set_bus(bus)
        obs.publish("custom.event", x=3)
        (event,) = sub.drain()
        assert event["name"] == "custom.event"
        assert event["x"] == 3

    def test_publish_without_bus_or_tracer_is_noop(self):
        obs.publish("nowhere", x=1)  # must not raise

    def test_protocol_batch_feeds_bus(self, scheme_2_3):
        bus = EventBus()
        sub = bus.subscribe()
        obs.set_bus(bus)
        try:
            store = scheme_2_3.make_store()
            idx = scheme_2_3.random_request_set(8, seed=1)
            scheme_2_3.write(idx, values=idx % 7, store=store, time=1)
        finally:
            obs.set_bus(None)
        # one event per batch, carrying the batch record itself
        (event,) = sub.drain()
        assert event["name"] == BatchRecord.EVENT
        rec = event["record"]
        assert isinstance(rec, BatchRecord)
        assert rec.op == "write" and rec.time == 1
        assert np.array_equal(rec.var_ids, idx)
        assert np.array_equal(rec.values, idx % 7)


def batch_record(
    op="write", time=1, requests=10, iterations=3, lost=0, degraded=0,
    worst_dead=0, load_skew=100,
):
    """A protocol batch record with the given health readings (one
    module, one step, 100 served, so ``load_skew`` is the max
    congestion)."""
    report = None
    lost_col = None
    if lost or degraded or worst_dead:
        outcomes = np.zeros(requests, dtype=np.int8)
        outcomes[lost:lost + degraded] = DEGRADED
        outcomes[:lost] = LOST
        dead = np.zeros(requests, dtype=np.int64)
        dead[:1] = worst_dead
        report = FaultReport(
            outcomes=outcomes, dead_copies=dead,
            grey_copies=np.zeros(requests, dtype=np.int64),
            satisfied_at=np.ones(requests, dtype=np.int64),
        )
        lost_col = outcomes == LOST
    return BatchRecord(
        op=op, time=time, copies=3, majority=2, modules=1,
        var_ids=np.arange(requests, dtype=np.int64),
        values=None if op == "count" else np.ones(requests, dtype=np.int64),
        lost=lost_col, phases=[PhaseTrace(iterations=iterations)],
        stats=MPCStats(
            steps=1, requests=100, served=100, max_congestion=load_skew
        ),
        fault_report=report,
    )


class TestHealthAggregator:
    def test_counters_and_round_gauge(self):
        reg = MetricsRegistry()
        agg = HealthAggregator(reg)
        agg.consume(batch_record(time=4, requests=10))
        agg.consume(batch_record(time=5, requests=6, lost=2, degraded=3))
        snap = reg.snapshot()
        assert snap["watch.batches"]["value"] == 2
        assert snap["watch.requests"]["value"] == 16
        assert snap["watch.lost"]["value"] == 2
        assert snap["watch.degraded"]["value"] == 3
        assert snap["watch.round"]["value"] == 5
        assert agg.batches == 2 and agg.lost == 2 and agg.degraded == 3

    def test_min_quorum_margin_tracks_minimum(self):
        agg = HealthAggregator(MetricsRegistry())
        agg.consume(batch_record())  # healthy: copies - majority = 1
        agg.consume(batch_record(worst_dead=1))
        agg.consume(batch_record())
        assert agg.min_quorum_margin == 0

    def test_empty_faulty_batch_has_healthy_margin(self):
        # a 0-request read with a failed module: no variable is at risk
        from repro.core.protocol import run_access_protocol

        bus = EventBus()
        sub = bus.subscribe()
        obs.set_bus(bus)
        store = SharedCopyStore(8, 4)
        run_access_protocol(
            np.empty((0, 3), dtype=np.int64), 8, 2, op="read",
            slots=np.empty((0, 3), dtype=np.int64), store=store,
            failed_modules=[0],
        )
        obs.set_bus(None)
        (event,) = sub.drain()
        agg = HealthAggregator(MetricsRegistry())
        agg.consume(event["record"])
        assert agg.min_quorum_margin == 1
        assert agg.batches == 1 and agg.lost == 0

    def test_unrelated_events_ignored(self):
        # count batches move no memory: no health reading
        reg = MetricsRegistry()
        agg = HealthAggregator(reg)
        agg.consume(batch_record(op="count"))
        assert agg.batches == 0
        assert reg.snapshot() == {}

    def test_histograms_carry_quantiles(self):
        reg = MetricsRegistry()
        agg = HealthAggregator(reg)
        for i in range(1, 101):
            agg.consume(batch_record(load_skew=i, iterations=i % 7 + 1))
        snap = reg.snapshot()
        skew = snap["watch.load_skew"]
        assert skew["count"] == 100
        assert {"p50", "p95", "p99"} <= set(skew)
        assert skew["p50"] <= skew["p95"] <= skew["p99"] <= skew["max"]
