"""Exactness of the watchdog's O(1) bookkeeping.

The streaming checker keeps running counts instead of re-summing its
structures, and :meth:`MemOpCore.retire` visits only the past-value
entries that expire.  Both must be invisible: after every fed record
the counts equal a brute-force recount, and every retire leaves exactly
what a full scan of every variable would (:func:`full_scan_retire`, the
rule as first written, kept here as the oracle).
"""

import copy
import random

import pytest

from repro.conformance.checker import MemOpCore
from repro.conformance.recorder import MemOp
from repro.conformance.streaming import (
    SCHEME_KEYS,
    StreamingChecker,
    stream_fuzz,
)


def full_scan_retire(cur, past, horizon):
    """Drop every past value last written before ``horizon``, scanning
    every variable; the current winner's value is kept at the winner's
    round."""
    out = {}
    for var, vals in past.items():
        keep = {v: r for v, r in vals.items() if r >= horizon}
        winner = cur.get(var)
        if winner is not None and winner[1] not in keep:
            keep[winner[1]] = winner[0]
        if keep:
            out[var] = keep
    return out


def core_recount(core):
    return (
        len(core._cur)
        + sum(len(v) for v in core._past.values())
        + sum(len(v) for v in core._taint.values())
    )


def checker_recount(sc):
    """(buffered, state_size) of a streaming checker, recounted."""
    buffered = sum(
        n
        for pending in (sc._pending, sc._kv_pending)
        for entries in pending.values()
        for _, _, n, _ in entries
    )
    return buffered, buffered + core_recount(sc._mem) + len(sc._kv._model)


@pytest.fixture
def audited(monkeypatch):
    """Check every retire against the full scan and every fed record
    against a recount; yields the number of checks made."""
    checks = {"retire": 0, "record": 0}
    retire, feed_record = MemOpCore.retire, StreamingChecker.feed_record

    def checked_retire(self, horizon):
        want = full_scan_retire(self._cur, copy.deepcopy(self._past), horizon)
        retire(self, horizon)
        assert self._past == want
        assert self.state_size == core_recount(self)
        checks["retire"] += 1

    def checked_feed_record(self, rec):
        feed_record(self, rec)
        assert (self.buffered, self.state_size) == checker_recount(self)
        checks["record"] += 1

    monkeypatch.setattr(MemOpCore, "retire", checked_retire)
    monkeypatch.setattr(StreamingChecker, "feed_record", checked_feed_record)
    yield checks


def random_ops(rng, n_ops):
    """A write/read stream over a few variables with lost operations,
    same-round arbitration and re-written values, in arbitration order."""
    ops, t = [], 0
    for seq in range(n_ops):
        t += rng.random() < 0.3
        ops.append(MemOp(
            op=rng.choice(("write", "write", "read")),
            var=rng.randrange(6), value=rng.randrange(-1, 5), round=t,
            proc=rng.randrange(4), phase=0, lost=rng.random() < 0.15,
            seq=seq,
        ))
    return ops


@pytest.mark.parametrize("seed", range(300))
def test_retire_matches_full_scan_on_random_streams(seed):
    rng = random.Random(seed)
    # ``ref`` classifies against the full-scan oracle's past values
    core, ref = MemOpCore(), MemOpCore()
    for o in random_ops(rng, 120):
        assert core.feed(o) == ref.feed(o)
        if rng.random() < 0.3:
            horizon = o.round - rng.randrange(4)
            core.retire(horizon)
            ref._past = full_scan_retire(ref._cur, ref._past, horizon)
        assert core._past == ref._past
        assert core._cur == ref._cur and core._taint == ref._taint
        assert core.state_size == core_recount(core)
    assert core.report == ref.report


@pytest.mark.parametrize("key", SCHEME_KEYS)
def test_stream_fuzz_counts_exact(key, audited):
    result = stream_fuzz(scheme=key, total_ops=800, seed=3)
    assert result.ok
    assert audited["record"] >= result.rounds
    assert audited["retire"] > 0


def test_served_counts_exact(audited):
    from repro.service.batcher import ServiceConfig
    from repro.service.loadgen import LoadConfig, run_load

    report = run_load(
        LoadConfig(clients=200, ops_per_client=3, keyspace=300,
                   mix="uniform", get_fraction=0.3, delete_fraction=0.1),
        ServiceConfig(q=2, n=5, round_capacity=50, max_pending=200),
    )
    assert report.violations == 0 and report.events_dropped == 0
    assert audited["record"] > 100 and audited["retire"] > 10


@pytest.mark.parametrize("key, seed, peak", [
    ("pp2", 0, 408), ("pp2", 1, 404),
    ("pp4", 0, 2798), ("pp4", 1, 2714),
    ("grid", 0, 930), ("grid", 1, 928),
])
def test_peak_state_pinned(key, seed, peak):
    # the per-event sampling the counters replace gave these peaks
    assert stream_fuzz(scheme=key, total_ops=3000, seed=seed).peak_state == peak
