"""Vector/scalar engine parity through every service layer.

The vectorized batch engine and the scalar protocol walker must be
interchangeable: the kv store and whole rounds of the service core,
driven under ``use('vector')`` and ``use('scalar')``, have to produce
bit-identical responses.
"""

import numpy as np
import pytest

from repro.core.engine import use
from repro.kvstore.store import ParallelKVStore
from repro.schemes.pp_adapter import PPAdapter
from repro.service.batcher import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    ServiceConfig,
    ServiceCore,
)


def _store() -> ParallelKVStore:
    return ParallelKVStore(PPAdapter(2, 3), seed=0)


class TestStoreEngineOverride:
    def test_per_call_override_matches_default(self):
        """A store filled under ``use()`` answers like one filled under
        the session's engine, whichever engine reads it."""
        keys = list(range(20))
        vals = [10 * k + 1 for k in keys]
        a, b = _store(), _store()
        a.batch_put(keys, vals)
        with use("vector"):
            b.batch_put(keys, vals)
        assert np.array_equal(a.batch_get(keys), b.batch_get(keys))
        # cross-engine reads of the same store agree too
        with use("scalar"):
            got = a.batch_get(keys)
        with use("vector"):
            assert np.array_equal(got, a.batch_get(keys))

    def test_override_applies_to_all_ops(self):
        a, b = _store(), _store()
        keys = list(range(12))
        got = []
        for s, eng in ((a, "scalar"), (b, "vector")):
            with use(eng):
                s.batch_put(keys, [k + 1 for k in keys])
                s.batch_delete(keys[::3])
                got.append((s.batch_get(keys), s.scan()))
        (ga, (fa, va)), (gb, (fb, vb)) = got
        assert np.array_equal(ga, gb)
        assert sorted(va.tolist()) == sorted(vb.tolist())
        assert sorted(fa.tolist()) == sorted(fb.tolist())

    def test_locate_parity(self):
        s = _store()
        s.batch_put([4, 8], [1, 2])
        found = []
        for eng in ("scalar", "vector"):
            with use(eng):
                found.append(s.locate([4, 8, 99])[0])
        assert np.array_equal(*found)

    def test_unknown_engine_rejected(self):
        s = _store()
        with pytest.raises(ValueError, match="unknown engine"):
            with use("nonsense"):
                s.batch_put([1], [1])  # pragma: no cover -- never entered
        assert s.clock == 0 and s.size == 0


def _round_trace():
    """Drive a fixed workload through a core under the current engine;
    return each round's tuple."""
    cfg = ServiceConfig(q=2, n=3, watchdog=False,
                        round_capacity=8, pipeline_depth=2)
    trace = []
    with ServiceCore(cfg) as core:
        ids = core.register_sessions(6)
        rng = np.random.default_rng(13)
        for step in range(12):
            for s in ids:
                op = (OP_GET, OP_PUT, OP_PUT, OP_DELETE)[
                    int(rng.integers(4))
                ]
                k = int(rng.integers(16))
                core.submit(int(s), op, k, int(rng.integers(1, 999)))
            res = core.run_round()
            trace.append(
                (
                    res.round_id,
                    np.asarray(res.session).tolist(),
                    np.asarray(res.op).tolist(),
                    np.asarray(res.key).tolist(),
                    np.asarray(res.value).tolist(),
                    np.asarray(res.status).tolist(),
                )
            )
        for res in core.drain():
            trace.append((res.round_id, np.asarray(res.value).tolist()))
        trace.append(core.stats()["completed"])
    return trace


class TestServiceEngineParity:
    def test_scalar_and_vector_cores_serve_identically(self):
        with use("scalar"):
            scalar = _round_trace()
        with use("vector"):
            assert _round_trace() == scalar

    def test_default_engine_matches_scalar(self):
        with use("scalar"):
            scalar = _round_trace()
        assert _round_trace() == scalar
