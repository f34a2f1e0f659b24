"""Observers do not change what they observe.

Every scheme runs the same seeded workload twice: once with no
observability backend installed, once with metrics, a recording tracer,
an event bus and a ledger all installed.  Values, lost requests, machine
statistics, fault reports and kv answers must be identical.
"""

import numpy as np
import pytest

from repro import obs
from repro.conformance.streaming import SCHEME_KEYS, scheme_by_key
from repro.kvstore import ParallelKVStore


def _result_digest(res) -> tuple:
    st = res.mpc_stats
    fr = res.fault_report
    fault = None if fr is None else (
        fr.outcomes.tolist(), fr.dead_copies.tolist(),
        fr.grey_copies.tolist(), fr.satisfied_at.tolist(),
        fr.implicated_modules.tolist(), fr.retry_limit,
        fr.extra_iterations,
    )
    return (
        res.op,
        None if res.values is None else res.values.tolist(),
        None if res.unsatisfiable is None else res.unsatisfiable.tolist(),
        [(p.iterations, list(p.live_history)) for p in res.phases],
        (st.steps, st.requests, st.served, st.max_congestion,
         st.congestion_summary()),
        fault,
    )


def scheme_workload(key: str) -> list:
    """Random-arbitration write/read/count, then a read with failed
    modules that loses the first two variables."""
    scheme = scheme_by_key(key)
    idx = scheme.random_request_set(48, seed=7)
    vals = np.arange(1, idx.size + 1, dtype=np.int64)
    store = scheme.make_store()
    common = {"arbitration": "random", "collect_history": True}
    out = [
        scheme.write(idx, vals, store, time=1, seed=11, **common),
        scheme.read(idx, store, time=2, seed=12, **common),
        scheme.access(idx, op="count", seed=13, **common),
    ]
    failed = np.unique(scheme.placement(idx[:2]))
    out.append(scheme.read(
        idx, store, time=3, seed=14, failed_modules=failed,
        allow_partial=True, **common,
    ))
    return [_result_digest(res) for res in out]


def kv_workload(key: str) -> list:
    kv = ParallelKVStore(scheme_by_key(key), seed=3)
    keys = [f"k{i}" for i in range(24)]
    return [
        kv.batch_put(keys, np.arange(24)),
        kv.batch_put(keys[::3], np.arange(8) + 100),
        kv.batch_get(keys + ["missing"]).tolist(),
        kv.batch_delete(keys[:5] + ["missing"]),
        kv.batch_get(keys).tolist(),
        kv.scan()[1].tolist(),
    ]


def observed(fn, *args):
    """Run ``fn`` with every backend installed; return its result and
    how much each backend saw (so the run is known to be observed)."""
    bus = obs.EventBus()
    sub = bus.subscribe()
    tracer = obs.RecordingTracer()
    led = obs.Ledger()
    obs.enable_metrics()
    obs.set_tracer(tracer)
    obs.set_bus(bus)
    obs.set_ledger(led)
    try:
        out = fn(*args)
    finally:
        obs.set_ledger(None)
        obs.set_bus(None)
        obs.set_tracer(None)
        obs.disable_metrics()
    seen = (len(obs.metrics()), len(tracer.events), len(sub.drain()))
    return out, seen, len(led.batches)


@pytest.mark.parametrize("key", SCHEME_KEYS)
@pytest.mark.parametrize("workload", [scheme_workload, kv_workload])
def test_results_identical_with_obs_on_and_off(key, workload):
    assert not obs.enabled()
    plain = workload(key)
    watched, seen, batches = observed(workload, key)
    assert watched == plain
    assert min(seen) > 0 and batches > 0


def test_scheme_workload_loses_requests_under_faults():
    # the neutrality check covers the degraded path, not just healthy runs
    for key in SCHEME_KEYS:
        *_, faulty = scheme_workload(key)
        assert faulty[2], key  # unsatisfiable requests
        assert faulty[5] is not None, key  # a fault report
