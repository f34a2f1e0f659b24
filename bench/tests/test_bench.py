"""Checks of the benchmark itself, at sizes that run in seconds.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads
from layers import LayerTracer, self_times

#: Small stand-ins for the four workloads (the CLI has no size option).
SMALL = {
    "scheme_n9": dict(n=5),
    "served_zipf": dict(clients=64, ops_per_client=3, keyspace=64),
    "served_zipf_nowatch": dict(clients=64, ops_per_client=3, keyspace=64),
    "served_churn": dict(clients=64, ops_per_client=3, keyspace=80),
}


def small(name: str, seed: int = 0):
    return workloads.make(name, seed, **SMALL[name])


def traced_calls(name: str) -> dict[str, int]:
    wl = small(name)
    wl.setup()
    with LayerTracer() as tracer:
        rep = wl.rep(0, oracle=wl.kind == "served")
    assert rep.failed == 0 and not rep.problems
    return self_times(tracer.spans)[1]


def test_every_layer_records_calls_where_it_runs():
    scheme = traced_calls("scheme_n9")
    served = traced_calls("served_zipf")
    for layer in ("core.scheme", *layers.SCHEME_PATH):
        assert scheme.get(layer, 0) >= 1, layer
    for layer in layers.LAYER_NAMES:
        if layer != "core.scheme":
            assert served.get(layer, 0) >= 1, layer


@pytest.mark.parametrize("name", ["scheme_n9", "served_zipf_nowatch"])
def test_bypass_workloads_record_no_watchdog_or_publish(name):
    calls = traced_calls(name)
    assert calls.get("conformance.watchdog", 0) == 0
    assert calls.get("obs.publish", 0) == 0


def test_tracer_restores_every_entry_point():
    from repro.mpc.machine import MPC
    import repro.obs

    step, publish = MPC.__dict__["step"], repro.obs.publish
    with LayerTracer():
        assert MPC.__dict__["step"] is not step
        assert repro.obs.publish is not publish
    assert MPC.__dict__["step"] is step
    assert repro.obs.publish is publish


@pytest.mark.parametrize("name", ["served_zipf", "served_churn"])
def test_tracing_does_not_change_served_results(name, monkeypatch):
    from repro.service.batcher import ServiceCore

    rounds: list = []
    original = ServiceCore.run_round

    def recording(self):
        res = original(self)
        if res is not None:
            rounds.append((res.status.copy(), res.value.copy()))
        return res

    monkeypatch.setattr(ServiceCore, "run_round", recording)
    wl = small(name, seed=3)
    wl.rep(1)
    plain, plain_cost = list(rounds), wl.last_report.stats["store"]
    rounds.clear()
    with LayerTracer():
        wl.rep(1, oracle=True)
    assert len(rounds) == len(plain) > 0
    for (s1, v1), (s2, v2) in zip(plain, rounds):
        assert (s1 == s2).all() and (v1 == v2).all()
    assert wl.last_report.stats["store"] == plain_cost


def test_self_times_subtract_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 5.0, 0, 1],
        ["b", 2.0, 3.0, 1, 1],
        ["b", 3.5, 4.0, 1, 1],
        ["a", 6.0, 9.0, 0, 1],
        ["c", 6.5, 8.5, 4, 1],
        ["root", 20.0, 21.0, -1, 2],
    ]
    own, calls = self_times(spans)
    assert own == pytest.approx({"root": 4.0, "a": 3.5, "b": 1.5, "c": 2.0})
    assert calls == {"root": 2, "a": 2, "b": 2, "c": 1}
    assert sum(own.values()) == pytest.approx(11.0)
    assert self_times([]) == ({}, {})


def test_benchmark_json_matches_what_run_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(layers.PER_LAYER)

    for name in ("scheme_n9", "served_zipf"):
        wl = small(name)
        wl.setup()
        plain = workloads.measure(wl, seconds=0)
        traced = workloads.measure_traced(wl, seconds=0)
        assert set(plain["metrics"]) | {"setup_s"} == {
            m["name"] for m in spec["end_to_end"]
        }
        assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
        for result in (plain, traced):
            assert result["failed"] == 0 and not result["problems"]
        assert all(v > 0 for v in plain["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "served_zipf",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
