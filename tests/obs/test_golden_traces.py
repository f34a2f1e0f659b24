"""Golden recorded traces: the trace schema, field for field.

Two traces are checked in under ``tests/obs/golden/`` with the wall-
clock fields (``ts``, ``dur``) stripped:

* ``pp2_3_write_read.jsonl`` -- a PPScheme(2, 3) write then read under
  a :class:`~repro.obs.trace.RecordingTracer` with a ledger installed
  (spans, ``mem.op`` and ``ledger.batch`` events);
* ``kvstore_put_get_delete.jsonl`` -- a ``ParallelKVStore``
  put/get/delete sequence under a
  :class:`~repro.conformance.recorder.TraceRecorder` (``kvstore.probe``
  and protocol spans, ``mem.op`` and ``kv.op`` events).

Any change to event names, fields, field order or emission order shows
up here line for line.  Regenerate (only for an intended schema change)
with ``PYTHONPATH=src python tests/obs/test_golden_traces.py``.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro import obs

GOLDEN = pathlib.Path(__file__).with_name("golden")
_WALL_FIELDS = ("ts", "dur")


def _lines(events: list[dict]) -> list[str]:
    out = []
    for e in events:
        rec = {k: v for k, v in e.items() if k not in _WALL_FIELDS}
        out.append(json.dumps(rec))
    return out


def pp_write_read_trace() -> list[str]:
    from repro.core.scheme import PPScheme

    scheme = PPScheme(2, 3)
    idx = scheme.random_request_set(12, seed=5)
    vals = np.arange(1, idx.size + 1, dtype=np.int64)
    store = scheme.make_store()
    tracer = obs.RecordingTracer()
    prev_tr = obs.set_tracer(tracer)
    prev_led = obs.set_ledger(obs.Ledger())
    try:
        scheme.write(idx, vals, store, time=1, seed=5)
        scheme.read(idx, store, time=2, seed=6)
    finally:
        obs.set_ledger(prev_led)
        obs.set_tracer(prev_tr if prev_tr.enabled else None)
    return _lines(tracer.events)


def kv_trace() -> list[str]:
    from repro.conformance.recorder import record
    from repro.kvstore import ParallelKVStore
    from repro.schemes import PPAdapter

    kv = ParallelKVStore(PPAdapter(2, 3), seed=3)
    with record() as rec:
        kv.batch_put(["a", "b", 7], np.array([1, 2, 3]))
        kv.batch_put(["b", "c"], np.array([20, 30]))
        kv.batch_get(["a", "b", "c", "missing"])
        kv.batch_delete(["a", "missing"])
        kv.batch_get(["a", 7])
    return _lines(rec.events)


TRACES = {
    "pp2_3_write_read.jsonl": pp_write_read_trace,
    "kvstore_put_get_delete.jsonl": kv_trace,
}


def _check(name: str) -> None:
    want = (GOLDEN / name).read_text().splitlines()
    got = TRACES[name]()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{name} line {i + 1} differs"


def test_pp_write_read_trace_matches_golden():
    _check("pp2_3_write_read.jsonl")


def test_kvstore_trace_matches_golden():
    _check("kvstore_put_get_delete.jsonl")


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    GOLDEN.mkdir(exist_ok=True)
    for fname, make in TRACES.items():
        (GOLDEN / fname).write_text("\n".join(make()) + "\n")
        print(f"wrote {GOLDEN / fname}")
