"""Tests for the bound-accounting ledger and its switchboard wiring."""

import numpy as np
import pytest

from repro import obs
from repro.core.scheme import PPScheme
from repro.gf.gf2m import GF2m, set_op_sink
from repro.obs.ledger import BatchRecord, Ledger
from repro.obs.stream import EventBus


@pytest.fixture
def scheme():
    return PPScheme(2, 3)


class TestSwitchboard:
    def test_install_flips_enabled(self):
        assert not obs.enabled()
        led = Ledger()
        obs.set_ledger(led)
        assert obs.enabled()
        assert obs.ledger() is led
        obs.set_ledger(None)
        assert not obs.enabled()
        assert obs.ledger() is None

    def test_set_returns_previous(self):
        a, b = Ledger(), Ledger()
        assert obs.set_ledger(a) is None
        assert obs.set_ledger(b) is a
        assert obs.set_ledger(None) is b

    def test_install_routes_gf_ops(self):
        led = Ledger()
        obs.set_ledger(led)
        f = GF2m(3)
        f.mul(3, 5)
        f.add(1, 2)
        f.log(4)
        assert led.gf.mul == 1 and led.gf.add == 1 and led.gf.dlog == 1
        obs.set_ledger(None)
        f.mul(3, 5)  # sink uninstalled: no further counting
        assert led.gf.mul == 1

    def test_swap_moves_sink(self):
        a, b = Ledger(), Ledger()
        obs.set_ledger(a)
        obs.set_ledger(b)
        GF2m(3).mul(3, 5)
        assert a.gf.mul == 0 and b.gf.mul == 1

    def test_uninstall_restores_prior_sink(self):
        from repro.gf.opcount import GFOpSink

        outer = GFOpSink()
        prev = set_op_sink(outer)
        led = Ledger()
        obs.set_ledger(led)
        obs.set_ledger(None)
        GF2m(3).mul(3, 5)
        assert outer.mul == 1 and led.gf.mul == 0
        set_op_sink(prev)


class TestEmission:
    def test_count(self):
        led = Ledger()
        led.count("x")
        led.count("x", 4)
        assert led.counters["x"] == 5

    def test_note_addressing_slices_gf_delta(self):
        led = Ledger()
        obs.set_ledger(led)
        f = GF2m(3)
        f.mul(3, 5)  # before the addressing block: not attributed
        before = led.gf.as_dict()
        f.mul(3, 5)
        f.log(4)
        led.note_addressing(7, before)
        assert led.counters["addr.computed"] == 7
        assert led.addressing_ops.mul == 1
        assert led.addressing_ops.dlog == 1
        assert led.gf.mul == 2  # global sink keeps everything


class TestSchemeIntegration:
    def run_batch(self, scheme, n=16, seed=3):
        idx = scheme.random_request_set(n, seed=seed)
        store = scheme.make_store()
        vals = np.arange(1, n + 1, dtype=np.int64)
        scheme.write(idx, vals, store, time=1, seed=seed)
        res = scheme.read(idx, store, time=2, seed=seed + 1)
        assert np.array_equal(res.values, vals)

    def test_counters_and_batches(self, scheme):
        led = Ledger()
        obs.set_ledger(led)
        self.run_batch(scheme)
        assert led.counters["addr.computed"] == 32  # write + read
        assert led.counters["addr.on_the_fly"] == 32  # q=2, odd n layer
        assert led.counters["protocol.batches"] == 2
        assert led.counters["protocol.rounds"] > 0
        assert led.counters["protocol.retries"] >= 0
        assert len(led.batches) == 2
        assert {rec.op for rec in led.batches} == {"read", "write"}
        for rec in led.batches:
            assert isinstance(rec, BatchRecord)
            assert rec.rounds >= rec.phi >= 1
            assert rec.congestion_max >= rec.congestion_p95 >= 1

    def test_addressing_field_work_counted(self, scheme):
        led = Ledger()
        obs.set_ledger(led)
        self.run_batch(scheme)
        assert led.addressing_ops.total() > 0
        assert led.addressing_ops.total() <= led.gf.total()

    def test_event_published_on_bus(self, scheme):
        bus = EventBus()
        sub = bus.subscribe({"ledger.batch"})
        obs.set_bus(bus)
        obs.set_ledger(Ledger())
        self.run_batch(scheme, n=8)
        events = sub.drain()
        assert len(events) == 2
        for ev in events:
            assert ev["name"] == "ledger.batch"
            assert ev["requests"] == 8
            assert ev["rounds"] >= 1
            assert "congestion_p95" in ev
            assert "seconds" not in ev  # counts only on the wire

    def test_no_ledger_no_records(self, scheme):
        self.run_batch(scheme)  # must not raise, nothing installed
        assert obs.ledger() is None

    def test_congestion_pooled_across_batches(self, scheme):
        led = Ledger()
        obs.set_ledger(led)
        self.run_batch(scheme)
        s = led.congestion_summary()
        assert s["p50"] is not None
        assert s["max"] >= s["p95"] >= s["p50"] >= 1

    def test_snapshot_and_reset(self, scheme):
        led = Ledger()
        obs.set_ledger(led)
        self.run_batch(scheme, n=8)
        snap = led.snapshot()
        assert snap["counters"]["protocol.batches"] == 2
        assert snap["gf_ops"]["mul"] >= 0
        assert len(snap["batches"]) == 2
        led.reset()
        assert led.counters == {} and led.batches == []
        assert led.gf.total() == 0
        # sink still installed: new work is counted again
        self.run_batch(scheme, n=8)
        assert led.counters["protocol.batches"] == 2
