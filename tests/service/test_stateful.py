"""Stateful end-to-end service battery.

A Hypothesis rule machine drives one fault-free :class:`ServiceCore`
through interleaved session submissions and rounds, and cross-checks
the service three independent ways:

* online: the core's own streaming watchdog (protocol + kv records);
* replay: :class:`SerialOracle` dict semantics per completed round;
* batch: every batch record the service bus published, expanded into
  its operations and re-checked offline by the batch
  :class:`ConsistencyChecker` at teardown.

Any disagreement anywhere is a round-semantics bug.
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.conformance.checker import ConsistencyChecker
from repro.conformance.recorder import KvOp, MemOp
from repro.obs.record import KvRecord
from repro.service.batcher import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    ServiceConfig,
    ServiceCore,
)
from repro.service.errors import Backpressure, PipelineFull

_N_SESSIONS = 6
_KEYS = st.integers(min_value=0, max_value=23)
_VALS = st.integers(min_value=1, max_value=2**20 - 1)
_SESS = st.integers(min_value=0, max_value=_N_SESSIONS - 1)


class ServiceMachine(RuleBasedStateMachine):
    """Interleaved submissions/rounds vs a dict model."""

    def __init__(self):
        super().__init__()
        self.core = ServiceCore(
            ServiceConfig(
                q=2, n=3, round_capacity=4, max_pending=12,
                pipeline_depth=2, watchdog=True, window=4,
                snapshot_every=2,
            )
        )
        self.core.open()
        self.core.register_sessions(_N_SESSIONS)
        # tap the service bus for the offline batch re-check
        self.tap = self.core._bus.subscribe(capacity=200_000)
        from repro.service.testing import SerialOracle

        self.oracle = SerialOracle()
        self.events: list[dict] = []
        self.submitted = 0

    @initialize()
    def warm(self):
        pass

    @rule(sess=_SESS, key=_KEYS, val=_VALS,
          op=st.sampled_from([OP_GET, OP_PUT, OP_PUT, OP_DELETE]))
    def submit(self, sess, key, val, op):
        try:
            self.core.submit(sess, op, key, val if op == OP_PUT else 0)
            self.submitted += 1
        except (PipelineFull, Backpressure):
            pass  # admission control working as specified

    @precondition(lambda self: self.core.pending > 0)
    @rule()
    def run_round(self):
        res = self.core.run_round()
        assert res is not None
        self.oracle.apply_round(res)
        self.events.extend(self.tap.drain())

    @invariant()
    def serial_oracle_agrees(self):
        assert self.oracle.ok, self.oracle.mismatches

    @invariant()
    def watchdog_clean_and_lossless(self):
        wd = self.core.watchdog
        assert wd.violations_seen == 0
        assert wd.subscription.dropped == 0
        assert self.tap.dropped == 0

    def teardown(self):
        try:
            for res in self.core.drain():
                self.oracle.apply_round(res)
            self.events.extend(self.tap.drain())
            assert self.oracle.ok, self.oracle.mismatches
            # final read-back: every key the model holds is served back
            if self.oracle.model:
                keys = sorted(self.oracle.model)
                sess = np.arange(len(keys)) % _N_SESSIONS
                # probe in per-session fairness slices; capacity may
                # split a slice over several rounds, so drain + merge
                for lo in range(0, len(keys), _N_SESSIONS):
                    chunk = keys[lo:lo + _N_SESSIONS]
                    ok = self.core.submit_batch(
                        sess[: len(chunk)],
                        np.full(len(chunk), OP_GET, dtype=np.int64),
                        np.asarray(chunk, dtype=np.int64),
                        np.zeros(len(chunk), dtype=np.int64),
                    )
                    assert ok.all()
                    got = {}
                    for res in self.core.drain():
                        got.update(
                            zip(np.asarray(res.key).tolist(),
                                np.asarray(res.value).tolist())
                        )
                    for k in chunk:
                        assert got[k] == self.oracle.model[k]
                self.events.extend(self.tap.drain())
            # offline batch re-check of the full published record stream
            ops = []
            for e in self.events:
                rec = e["record"]
                cls = KvOp if isinstance(rec, KvRecord) else MemOp
                base = len(ops)
                ops += [
                    cls(seq=base + i, **f)
                    for i, f in enumerate(rec.op_events(), 1)
                ]
            checker = ConsistencyChecker()
            rep = checker.check_mem_ops(
                [o for o in ops if not isinstance(o, KvOp)]
            ).merge(checker.check_kv_ops(
                [o for o in ops if isinstance(o, KvOp)]
            ))
            assert any(isinstance(o, KvOp) for o in ops) or not self.submitted
            assert rep.ok, [v.describe() for v in rep.violations]
            wd = self.core.watchdog
            assert wd.violations_seen == 0
            assert wd.subscription.dropped == 0
        finally:
            self.core.close()


ServiceMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestServiceMachine = ServiceMachine.TestCase
