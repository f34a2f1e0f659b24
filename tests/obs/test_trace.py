"""Tests for the tracer backends, the switchboard, and the end-to-end
trace round trip (JSONL must reproduce ``AccessResult`` exactly)."""

import json

import pytest

from repro import obs
from repro.obs.trace import NULL_SPAN, NullTracer, RecordingTracer, traced


class TestNullTracer:
    def test_span_is_shared_noop(self):
        t = NullTracer()
        sp = t.span("x", a=1)
        assert sp is NULL_SPAN
        with sp as inner:
            inner.add(b=2)  # silently dropped
        assert t.enabled is False

    def test_event_is_noop(self):
        NullTracer().event("x", a=1)  # must not raise


class TestRecordingTracer:
    def make(self):
        ticks = iter(range(100))
        return RecordingTracer(clock=lambda: float(next(ticks)))

    def test_event_record(self):
        t = self.make()
        t.event("hello", a=1)
        (ev,) = t.events
        assert ev == {"type": "event", "name": "hello", "seq": 1,
                      "ts": 1.0, "a": 1}

    def test_span_emits_at_close_with_dur(self):
        t = self.make()
        with t.span("work", x=1) as sp:
            assert t.events == []  # nothing until close
            sp.add(y=2)
        (ev,) = t.events
        assert ev["type"] == "span" and ev["name"] == "work"
        assert ev["x"] == 1 and ev["y"] == 2
        assert ev["dur"] == pytest.approx(ev["ts"] + ev["dur"] - ev["ts"])

    def test_children_precede_parents(self):
        t = self.make()
        with t.span("outer"):
            with t.span("inner"):
                pass
        assert [e["name"] for e in t.events] == ["inner", "outer"]
        assert [e["seq"] for e in t.events] == [1, 2]

    def test_jsonl_round_trip(self, tmp_path):
        t = self.make()
        t.event("e", k="v")
        with t.span("s"):
            pass
        path = tmp_path / "t.jsonl"
        assert t.write_jsonl(str(path)) == 2
        back = obs.read_jsonl(str(path))
        assert back == t.events

    def test_jsonl_handles_numpy(self, tmp_path):
        np = pytest.importorskip("numpy")
        t = self.make()
        t.event("e", n=np.int64(3), arr=np.array([1, 2]))
        line = t.to_jsonl().strip()
        rec = json.loads(line)
        assert rec["n"] == 3 and rec["arr"] == [1, 2]


class TestSwitchboard:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert not obs.metrics_enabled()
        assert isinstance(obs.tracer(), NullTracer)

    def test_enable_metrics_flips_guard(self):
        obs.enable_metrics()
        assert obs.enabled() and obs.metrics_enabled()
        obs.disable_metrics()
        assert not obs.enabled()

    def test_set_tracer_flips_guard_and_returns_prev(self):
        t = RecordingTracer()
        prev = obs.set_tracer(t)
        assert isinstance(prev, NullTracer)
        assert obs.enabled() and obs.tracer() is t
        assert obs.set_tracer(None) is t
        assert not obs.enabled()

    def test_collect_restores_state(self):
        with obs.collect() as (reg, tracer):
            assert obs.enabled() and obs.metrics_enabled()
            assert reg is obs.metrics()
            assert obs.tracer() is tracer
        assert not obs.enabled()
        assert isinstance(obs.tracer(), NullTracer)

    def test_collect_without_trace(self):
        with obs.collect(trace=False) as (reg, tracer):
            assert tracer is None
            assert isinstance(obs.tracer(), NullTracer)
            assert obs.metrics_enabled()

    def test_span_helper_off_is_null(self):
        with obs.span("x", a=1) as sp:
            assert sp is NULL_SPAN

    def test_span_helper_records_and_times(self):
        with obs.collect() as (reg, tracer):
            with obs.span("x", a=1) as sp:
                sp.add(b=2)
        (ev,) = tracer.events
        assert ev["name"] == "x" and ev["a"] == 1 and ev["b"] == 2
        assert ev["type"] == "span" and ev["dur"] >= 0.0

    def test_traced_decorator(self):
        @traced("my.op")
        def f(x):
            return x + 1

        assert f(1) == 2  # disabled: passthrough
        t = RecordingTracer()
        obs.set_tracer(t)
        assert f(2) == 3
        obs.set_tracer(None)
        assert [e["name"] for e in t.events] == ["my.op"]

    def test_traced_default_name(self):
        @traced()
        def g():
            return None

        t = RecordingTracer()
        obs.set_tracer(t)
        g()
        obs.set_tracer(None)
        assert t.events[0]["name"].endswith("g")


class TestEndToEndRoundTrip:
    """Acceptance: the JSONL trace reproduces the per-phase iteration
    counts reported by ``AccessResult`` exactly."""

    def run_traced(self, scheme, count, tmp_path, seed=3):
        idx = scheme.random_request_set(count, seed=seed)
        tracer = RecordingTracer()
        prev = obs.set_tracer(tracer)
        try:
            res = scheme.access(idx, op="count")
        finally:
            obs.set_tracer(prev)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        return res, obs.read_jsonl(str(path))

    def test_phase_iterations_match_exactly(self, scheme_2_5, tmp_path):
        res, events = self.run_traced(
            scheme_2_5, min(scheme_2_5.N, scheme_2_5.M), tmp_path
        )
        phases = sorted(
            (e for e in events if e["name"] == "protocol.phase"),
            key=lambda e: e["phase"],
        )
        assert [e["iterations"] for e in phases] == res.iterations_per_phase
        for e, trace in zip(phases, res.phases):
            assert e["live_history"] == list(trace.live_history)
            assert e["iterations"] == len(e["live_history"]) - 1

    def test_access_span_totals(self, scheme_2_5, tmp_path):
        res, events = self.run_traced(scheme_2_5, 256, tmp_path)
        (acc,) = [e for e in events if e["name"] == "protocol.access"]
        assert acc["total_iterations"] == res.total_iterations
        assert acc["requests"] == 256
        assert acc["phases"] == len(res.phases)
        assert acc["op"] == "count"

    def test_mpc_steps_match(self, scheme_2_5, tmp_path):
        # the access span carries the batch's machine totals
        res, events = self.run_traced(scheme_2_5, 256, tmp_path)
        (acc,) = [e for e in events if e["name"] == "protocol.access"]
        st = res.mpc_stats
        assert acc["mpc_steps"] == st.steps
        assert acc["mpc_requests"] == st.requests
        assert acc["mpc_served"] == st.served
        assert acc["mpc_max_congestion"] == st.max_congestion
        assert not any(e["name"] == "mpc.step" for e in events)

    def test_metrics_match_result(self, scheme_2_5):
        idx = scheme_2_5.random_request_set(256, seed=5)
        with obs.collect(trace=False) as (reg, _):
            res = scheme_2_5.access(idx, op="count")
        snap = reg.snapshot()
        assert snap["protocol.iterations"]["value"] == res.total_iterations
        assert snap["mpc.steps"]["value"] == res.mpc_stats.steps
        assert snap["mpc.requests"]["value"] == res.mpc_stats.requests
        assert snap["mpc.served"]["value"] == res.mpc_stats.served
        assert (
            snap["mpc.max_congestion"]["value"] == res.mpc_stats.max_congestion
        )
        assert snap["protocol.accesses{op=count}"]["value"] == 1
        assert (
            snap["protocol.phase_iterations"]["count"] == len(res.phases)
        )

    def test_kvstore_trace_and_metrics(self):
        from repro.kvstore import ParallelKVStore
        from repro.schemes.pp_adapter import PPAdapter

        kv = ParallelKVStore(PPAdapter(2, 3), seed=1)
        keys = [f"k{i}" for i in range(20)]
        with obs.collect() as (reg, tracer):
            kv.batch_put(keys, list(range(20)))
            kv.batch_get(keys)
        names = {e["name"] for e in tracer.events}
        assert {"kvstore.probe", "kv.op"} <= names
        assert not names & {"kvstore.op", "kvstore.probe_round"}
        ops = [e for e in tracer.events if e["name"] == "kv.op"]
        assert [e["op"] for e in ops] == ["put"] * 20 + ["get"] * 20
        probe = next(e for e in tracer.events if e["name"] == "kvstore.probe")
        assert probe["rounds"] >= 1
        snap = reg.snapshot()
        assert snap["kvstore.ops{op=put}"]["value"] == 1
        assert snap["kvstore.ops{op=get}"]["value"] == 1
        assert "kvstore.probe_rounds" not in snap
