"""Scalar-vs-vector engine differential harness.

The vectorized batch engine (`repro.core.protocol._run_phase`) is the
production path; the per-processor scalar loop (`repro.core.engine
.run_phase_scalar`) is the readable oracle.  These tests pin the two
op-for-op: same seeded workload through both engines must produce
identical values, arbitration winners, R_k histories, MPC statistics,
fault reports, and final module state -- across all six conformance
schemes, all three arbitration policies, and the fault/degraded paths.
"""

import os

import numpy as np
import pytest

from repro.core.engine import ENGINES, current, use
from repro.core.protocol import run_access_protocol
from repro.core.scheme import PPScheme
from repro.conformance.streaming import SCHEME_KEYS, scheme_by_key
from repro.faults.models import FaultPlan
from repro.workloads.generators import op_batches


# ---------------------------------------------------------------------------
# comparison helpers


def _store_state(store):
    """Hashable/comparable snapshot of any store implementation."""
    if hasattr(store, "_cells"):  # sparse KeyedCopyStore
        return dict(store._cells)
    return store.values.copy(), store.stamps.copy()  # dense SharedCopyStore


def _assert_stores_equal(a, b):
    sa, sb = _store_state(a), _store_state(b)
    if isinstance(sa, dict):
        assert sa == sb
    else:
        np.testing.assert_array_equal(sa[0], sb[0])
        np.testing.assert_array_equal(sa[1], sb[1])


def _assert_results_equal(vec, sca):
    """Every observable of an AccessResult must match across engines."""
    assert vec.engine == "vector" and sca.engine == "scalar"
    assert vec.op == sca.op and vec.n_requests == sca.n_requests
    if vec.values is None:
        assert sca.values is None
    else:
        np.testing.assert_array_equal(vec.values, sca.values)
    assert len(vec.phases) == len(sca.phases)
    for pv, ps in zip(vec.phases, sca.phases):
        assert pv.iterations == ps.iterations
        assert pv.live_history == ps.live_history
    assert vec.mpc_stats.snapshot() == sca.mpc_stats.snapshot()
    if vec.unsatisfiable is None:
        assert sca.unsatisfiable is None
    else:
        np.testing.assert_array_equal(vec.unsatisfiable, sca.unsatisfiable)
    if vec.fault_report is None:
        assert sca.fault_report is None
    else:
        fv, fs = vec.fault_report, sca.fault_report
        np.testing.assert_array_equal(fv.outcomes, fs.outcomes)
        np.testing.assert_array_equal(fv.dead_copies, fs.dead_copies)
        np.testing.assert_array_equal(fv.grey_copies, fs.grey_copies)
        np.testing.assert_array_equal(fv.satisfied_at, fs.satisfied_at)
        np.testing.assert_array_equal(
            fv.implicated_modules, fs.implicated_modules
        )


def _on(engine, call, *args, **kw):
    """``call(*args, **kw)`` under protocol executor ``engine``."""
    with use(engine):
        return call(*args, **kw)


def _run_workload(scheme, plan, engine, **kw):
    """Replay a read/write plan on a fresh store under ``engine``;
    return per-op results and the final store."""
    store = scheme.make_store() if hasattr(scheme, "make_store") else None
    results = []
    with use(engine):
        for t, (kind, idx) in enumerate(plan, start=1):
            if kind == "write":
                vals = (np.asarray(idx, dtype=np.int64) * 37 + t) % (1 << 20)
                res = scheme.write(idx, values=vals, store=store, time=t, **kw)
            else:
                res = scheme.read(idx, store=store, time=t, **kw)
            results.append(res)
    return results, store


# ---------------------------------------------------------------------------
# all six conformance schemes, mixed seeded workloads


@pytest.mark.parametrize("key", SCHEME_KEYS)
def test_workload_parity_across_schemes(key):
    scheme_v, scheme_s = scheme_by_key(key), scheme_by_key(key)
    plan = op_batches(min(scheme_v.M, 256), 120, seed=11, max_batch=16)
    res_v, store_v = _run_workload(scheme_v, plan, "vector")
    res_s, store_s = _run_workload(scheme_s, plan, "scalar")
    for rv, rs in zip(res_v, res_s):
        _assert_results_equal(rv, rs)
    _assert_stores_equal(store_v, store_s)


@pytest.mark.parametrize("key", SCHEME_KEYS)
def test_workload_parity_under_fault_plan(key):
    """A repro.faults plan (dead + grey modules) applied identically."""
    scheme_v, scheme_s = scheme_by_key(key), scheme_by_key(key)
    n = scheme_v.N
    grey = np.ones(n, dtype=np.int64)
    grey[:: max(1, n // 7)] = 3  # every 7th-ish module answers 1-in-3
    plan = FaultPlan(
        failed_modules=np.array([1, n - 2], dtype=np.int64),
        grey_periods=grey,
    )
    kw = plan.access_kwargs()
    ops = op_batches(min(scheme_v.M, 256), 80, seed=23, max_batch=12)
    res_v, store_v = _run_workload(scheme_v, ops, "vector", **kw)
    res_s, store_s = _run_workload(scheme_s, ops, "scalar", **kw)
    for rv, rs in zip(res_v, res_s):
        _assert_results_equal(rv, rs)
    _assert_stores_equal(store_v, store_s)


# ---------------------------------------------------------------------------
# arbitration policies (priority streams must match, incl. the RNG one)


@pytest.mark.parametrize("arbitration", ["lowest", "random", "rotating"])
def test_arbitration_parity(scheme_2_3, arbitration):
    idx = scheme_2_3.random_request_set(40, seed=5)
    common = dict(arbitration=arbitration, seed=17, collect_history=True)
    res_v = _on("vector", scheme_2_3.access, idx, op="count", **common)
    res_s = _on("scalar", scheme_2_3.access, idx, op="count", **common)
    _assert_results_equal(res_v, res_s)
    assert res_v.max_phase_iterations == res_s.max_phase_iterations


@pytest.mark.parametrize("arbitration", ["lowest", "random", "rotating"])
def test_arbitration_parity_read_write(scheme_2_3, arbitration):
    store_v, store_s = scheme_2_3.make_store(), scheme_2_3.make_store()
    idx = scheme_2_3.random_request_set(24, seed=8)
    vals = idx * 11 + 1
    kw = dict(arbitration=arbitration, seed=4)
    _assert_results_equal(
        _on("vector", scheme_2_3.write, idx, vals, store_v, time=1, **kw),
        _on("scalar", scheme_2_3.write, idx, vals, store_s, time=1, **kw),
    )
    _assert_results_equal(
        _on("vector", scheme_2_3.read, idx, store_v, time=2, **kw),
        _on("scalar", scheme_2_3.read, idx, store_s, time=2, **kw),
    )
    _assert_stores_equal(store_v, store_s)


# ---------------------------------------------------------------------------
# degraded / partial / lost paths


def test_failed_modules_allow_partial_parity(scheme_2_3):
    idx = scheme_2_3.random_request_set(30, seed=2)
    kw = dict(
        failed_modules=np.array([0, 5, 9], dtype=np.int64),
        allow_partial=True,
        collect_history=True,
    )
    res_v = _on("vector", scheme_2_3.access, idx, op="count", **kw)
    res_s = _on("scalar", scheme_2_3.access, idx, op="count", **kw)
    _assert_results_equal(res_v, res_s)
    assert res_v.fault_report is not None


def test_retry_limit_lost_variables_parity(scheme_2_3):
    """Grey modules + a tight retry budget: both engines must degrade
    and give up on the same variables at the same iteration."""
    n = scheme_2_3.N
    grey = np.ones(n, dtype=np.int64)
    grey[: n // 2] = 50  # half the machine nearly unresponsive
    idx = scheme_2_3.random_request_set(30, seed=3)
    kw = dict(
        grey_modules=grey, retry_limit=3, allow_partial=True,
        collect_history=True,
    )
    res_v = _on("vector", scheme_2_3.access, idx, op="count", **kw)
    res_s = _on("scalar", scheme_2_3.access, idx, op="count", **kw)
    _assert_results_equal(res_v, res_s)


def test_retry_exhaustion_error_message_parity(scheme_2_3):
    """Without allow_partial the engines must raise the *same* error."""
    n = scheme_2_3.N
    grey = np.full(n, 1000, dtype=np.int64)  # nobody answers in time
    idx = scheme_2_3.random_request_set(10, seed=1)
    msgs = []
    for engine in ENGINES:
        with pytest.raises(ValueError) as exc:
            _on(
                engine, scheme_2_3.access, idx, op="count",
                grey_modules=grey, retry_limit=2,
            )
        msgs.append(str(exc.value))
    assert msgs[0] == msgs[1]
    assert "retry_limit=2" in msgs[0]


def test_doomed_variables_unsatisfiable_parity():
    """Kill more than q/2 copies of everything: both engines must mark
    the same variables unsatisfiable upfront."""
    scheme = PPScheme(2, 3)
    idx = scheme.random_request_set(20, seed=6)
    dead = np.arange(scheme.N // 2, dtype=np.int64)  # half the machine
    kw = dict(failed_modules=dead, allow_partial=True)
    res_v = _on("vector", scheme.access, idx, op="count", **kw)
    res_s = _on("scalar", scheme.access, idx, op="count", **kw)
    _assert_results_equal(res_v, res_s)
    assert res_v.unsatisfiable is not None and res_v.unsatisfiable.any()


# ---------------------------------------------------------------------------
# raw protocol entry point (no scheme in the way)


def test_raw_protocol_parity_shared_modules():
    """Hand-built copy map with heavy module contention."""
    rng = np.random.default_rng(42)
    module_ids = rng.integers(0, 8, size=(25, 5)).astype(np.int64)
    out = [
        _on(
            engine, run_access_protocol, module_ids, 8, 3, op="count",
            collect_history=True, arbitration="random", seed=7,
        )
        for engine in ENGINES
    ]
    _assert_results_equal(*out)


# ---------------------------------------------------------------------------
# engine selection: the one switch in repro.core.engine


def test_use_rejects_unknown():
    before = current()
    with pytest.raises(ValueError, match="unknown engine"):
        with use("simd"):
            pass  # pragma: no cover -- never entered
    assert current() == before


def test_use_nests_and_restores():
    before = current()
    with use("scalar") as outer:
        assert outer == current() == "scalar"
        with use("vector"):
            assert current() == "vector"
        assert current() == "scalar"
    assert current() == before


def test_use_restores_after_exception(scheme_2_3):
    before = current()
    with pytest.raises(RuntimeError):
        with use("scalar"):
            assert scheme_2_3.access(np.arange(4)).engine == "scalar"
            raise RuntimeError("body failed")
    assert current() == before


def test_access_runs_under_repro_engine(scheme_2_3):
    """The suite runs under ``$REPRO_ENGINE`` (``vector`` when unset):
    if the switch stops reaching the protocol, CI's scalar leg fails
    here instead of silently testing the vector engine twice."""
    want = os.environ.get("REPRO_ENGINE") or "vector"
    res = scheme_2_3.access(scheme_2_3.random_request_set(5, seed=0))
    assert res.engine == want


def test_result_records_engine(scheme_2_3):
    idx = scheme_2_3.random_request_set(4, seed=0)
    for engine in ENGINES:
        with use(engine):
            assert scheme_2_3.access(idx).engine == engine
