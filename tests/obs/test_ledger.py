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
    def test_count(self, scheme):
        # every tally is a sum over the batch records emit handed over
        led = Ledger()
        obs.set_ledger(led)
        idx = scheme.random_request_set(10, seed=1)
        store = scheme.make_store()
        scheme.write(idx, idx + 1, store, time=1)
        scheme.read(idx[:4], store, time=2)
        scheme.access(idx[:6], op="count")
        b = led.batches
        assert led.counters == {
            "addr.computed": 20,
            "protocol.batches": 3,
            "protocol.quorum_copies": sum(rec.majority for rec in b),
            "protocol.retries": sum(rec.retries for rec in b),
            "protocol.rounds": sum(rec.rounds for rec in b),
        }
        assert led.counters["protocol.rounds"] >= 3

    @pytest.mark.parametrize("engine", ["vector", "scalar"])
    def test_protocol_does_no_field_arithmetic(self, scheme, engine):
        # the ledger keeps one GF tally and reads it as the addressing
        # work: that holds only while the protocol itself never touches
        # the field
        from repro.core.engine import use
        from repro.core.protocol import run_access_protocol
        from repro.gf.opcount import GFOpSink

        idx = scheme.random_request_set(24, seed=2)
        placing = GFOpSink()
        prev = set_op_sink(placing)
        try:
            modules, slots = scheme.placement_for(idx)
        finally:
            set_op_sink(prev)
        assert placing.total() > 0  # the sink does see addressing work
        store = scheme.make_store()
        vals = np.arange(1, idx.size + 1, dtype=np.int64)
        sink = GFOpSink()
        prev = set_op_sink(sink)
        try:
            with use(engine):
                for op, t in (("write", 1), ("read", 2), ("count", 3)):
                    res = run_access_protocol(
                        modules, scheme.N, scheme.majority, op=op,
                        slots=None if op == "count" else slots,
                        store=None if op == "count" else store,
                        values=vals if op == "write" else None, time=t,
                        arbitration="random", seed=t,
                    )
        finally:
            set_op_sink(prev)
        assert res.total_iterations >= 1
        assert sink.as_dict() == {"add": 0, "mul": 0, "dlog": 0, "exp": 0}


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
        assert led.gf.total() > 0
        assert led.gf.dlog > 0  # O(log N) unrank: discrete logs

    def test_event_published_on_bus(self, scheme):
        # the bus carries each batch record once, the same object the
        # ledger keeps; no separate ledger.batch event rides the bus
        bus = EventBus()
        sub = bus.subscribe()
        obs.set_bus(bus)
        led = Ledger()
        obs.set_ledger(led)
        self.run_batch(scheme, n=8)
        events = sub.drain()
        assert [ev["name"] for ev in events] == [BatchRecord.EVENT] * 2
        assert [ev["record"] for ev in events] == led.batches
        for ev in events:
            fields = ev["record"].ledger_fields()
            assert fields["requests"] == 8
            assert fields["rounds"] >= 1
            assert "congestion_p95" in fields
            assert "seconds" not in fields  # counts only on the wire

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
        assert set(led.counters.values()) == {0} and led.batches == []
        assert led.gf.total() == 0
        # sink still installed: new work is counted again
        self.run_batch(scheme, n=8)
        assert led.counters["protocol.batches"] == 2
