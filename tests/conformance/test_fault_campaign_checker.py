"""The checker inside the E13 fault campaign (ISSUE satellite).

Below the paper's q/2 threshold the majority protocol masks every fault,
so a recorded run under tolerated attacks must produce a violation-free
trace; just past it (q/2 + 1 stale copies, fresh remnant unreachable)
the protocol returns wrong values *silently* -- and the checker, not the
protocol, is what flags them.  This closes the loop on E13: the campaign
shows the threshold exists, the checker proves it is observable from
traces alone.
"""

import numpy as np
import pytest

from repro.conformance.checker import ConsistencyChecker
from repro.conformance.differential import stale_majority_canary
from repro.conformance.recorder import record
from repro.faults.models import (
    FaultContext,
    StaleCopies,
    TargetedAttack,
    disjoint_victims,
)
from repro.schemes.pp_adapter import PPAdapter


@pytest.fixture(scope="module")
def setup():
    sch = PPAdapter(2, 3)
    idx = sch.random_request_set(48, seed=0)
    modules, slots = sch.placement_and_slots(idx)
    ctx = FaultContext(sch.N, modules, sch.read_quorum, slots=slots)
    victims = disjoint_victims(modules, 4)
    return sch, idx, modules, slots, ctx, victims


def _propagate(store, modules, slots, values, time):
    store.write(
        modules, slots, np.broadcast_to(values[:, None], modules.shape), time
    )


class TestBelowThreshold:
    def test_killed_copies_within_tolerance_zero_violations(self, setup):
        sch, idx, modules, slots, ctx, victims = setup
        vals = (idx * 7 + 3) % (1 << 20)
        store = sch.make_store()
        retry = 64 * (idx.size + ctx.copies)
        with record() as rec:
            sch.write(idx, values=vals, store=store, time=1)
            plan = TargetedAttack(
                copies_per_victim=ctx.tolerance, victims=victims
            ).plan(ctx, 1.0, seed=0)
            res = sch.read(
                idx, store=store, time=2, retry_limit=retry,
                **plan.access_kwargs(),
            )
        assert res.unsatisfiable is None
        report = ConsistencyChecker().check_mem_ops(rec.mem_ops())
        assert report.ok, report.render()
        assert report.reads_checked == idx.size

    def test_stale_copies_within_tolerance_zero_violations(self, setup):
        sch, idx, modules, slots, ctx, victims = setup
        old_vals = (idx * 5 + 1) % (1 << 20)
        vals = (idx * 7 + 3) % (1 << 20)
        store = sch.make_store()
        with record() as rec:
            sch.write(idx, values=old_vals, store=store, time=1)
            sch.write(idx, values=vals, store=store, time=2)
            _propagate(store, modules, slots, old_vals, 1)
            _propagate(store, modules, slots, vals, 2)
            plan = StaleCopies(
                copies_per_victim=ctx.tolerance, victims=victims
            ).plan(ctx, 1.0, seed=0)
            StaleCopies.apply(plan, store, ctx, old_vals, 1)
            res = sch.read(idx, store=store, time=3)
        # a fresh majority still exists: the protocol masks the rollback
        assert np.array_equal(res.values, vals)
        report = ConsistencyChecker().check_mem_ops(rec.mem_ops())
        assert report.ok, report.render()


class TestPastThreshold:
    def test_silent_majority_corruption_flagged(self):
        canary = stale_majority_canary(seed=0)
        # the protocol itself reported nothing: the reads came back
        # wrong without being marked lost
        assert canary.silent_wrong_reads > 0
        # ... and the checker flags exactly those reads, by identity
        assert canary.detected
        assert canary.report.n_violations == canary.silent_wrong_reads

    def test_total_kill_is_reported_not_silent(self, setup):
        # killing q/2 + 1 copies makes the quorum unreachable: the
        # protocol *reports* the loss, so the checker has nothing to
        # flag -- the trace is honest about the failure
        sch, idx, modules, slots, ctx, victims = setup
        vals = (idx * 7 + 3) % (1 << 20)
        store = sch.make_store()
        retry = 64 * (idx.size + ctx.copies)
        with record() as rec:
            sch.write(idx, values=vals, store=store, time=1)
            plan = TargetedAttack(
                copies_per_victim=ctx.tolerance + 1, victims=victims
            ).plan(ctx, 1.0, seed=0)
            res = sch.read(
                idx, store=store, time=2, retry_limit=retry,
                **plan.access_kwargs(),
            )
        assert res.unsatisfiable is not None
        assert set(victims) <= set(int(v) for v in res.unsatisfiable)
        report = ConsistencyChecker().check_mem_ops(rec.mem_ops())
        assert report.ok, report.render()
        assert report.lost_exempt >= victims.size
