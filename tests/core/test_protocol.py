"""Tests for the Section-3 access protocol engine."""

import numpy as np
import pytest

from repro.core.protocol import AccessResult, run_access_protocol
from repro.mpc.memory import SharedCopyStore


def manual_modules(rows):
    return np.array(rows, dtype=np.int64)


class TestValidation:
    def test_requires_2d(self):
        with pytest.raises(ValueError):
            run_access_protocol(np.array([1, 2, 3]), 10, 1)

    def test_bad_majority(self):
        mods = manual_modules([[0, 1, 2]])
        with pytest.raises(ValueError):
            run_access_protocol(mods, 10, 0)
        with pytest.raises(ValueError):
            run_access_protocol(mods, 10, 4)

    def test_bad_op(self):
        with pytest.raises(ValueError):
            run_access_protocol(manual_modules([[0, 1, 2]]), 10, 2, op="flush")

    def test_write_requires_store_and_values(self):
        mods = manual_modules([[0, 1, 2]])
        with pytest.raises(ValueError):
            run_access_protocol(mods, 10, 2, op="write")
        store = SharedCopyStore(10, 4)
        slots = np.zeros_like(mods)
        with pytest.raises(ValueError):
            run_access_protocol(mods, 10, 2, op="write", store=store, slots=slots)

    def test_value_range_enforced(self):
        mods = manual_modules([[0, 1, 2]])
        store = SharedCopyStore(10, 4)
        slots = np.zeros_like(mods)
        with pytest.raises(ValueError):
            run_access_protocol(
                mods, 10, 2, op="write", store=store, slots=slots,
                values=np.array([1 << 33]),
            )

    def test_bad_var_ids_shape_rejected_before_any_write(self):
        # checked with the other arguments, observability off: a
        # mis-shaped var_ids must not reach the store
        from repro import obs

        assert not obs.enabled()
        mods = np.arange(24, dtype=np.int64).reshape(8, 3) % 10
        store = SharedCopyStore(10, 4)
        with pytest.raises(ValueError, match="var_ids"):
            run_access_protocol(
                mods, 10, 2, op="write", store=store,
                slots=np.zeros_like(mods), values=np.ones(8, dtype=np.int64),
                var_ids=np.arange(3),
            )
        assert (store.stamps == -1).all()

    def test_empty_faulty_batch_runs_under_a_bus(self):
        # a 0-request read with a failed module behaves the same with
        # and without a bus installed
        from repro import obs
        from repro.obs.stream import EventBus

        empty = np.empty((0, 3), dtype=np.int64)
        kwargs = dict(
            op="read", slots=empty, store=SharedCopyStore(8, 4),
            failed_modules=[0],
        )
        plain = run_access_protocol(empty, 8, 2, **kwargs)
        bus = EventBus()
        sub = bus.subscribe()
        prev = obs.set_bus(bus)
        try:
            res = run_access_protocol(empty, 8, 2, **kwargs)
        finally:
            obs.set_bus(prev)
        assert res.n_requests == plain.n_requests == 0
        assert len(sub.drain()) == 1


class TestCounting:
    def test_single_variable_one_iteration(self):
        res = run_access_protocol(manual_modules([[0, 1, 2]]), 5, 2)
        # one phase has the variable; two empty phases
        assert res.iterations_per_phase.count(0) == 2
        assert res.max_phase_iterations == 1
        assert res.n_requests == 1

    def test_disjoint_variables_parallel(self):
        # 4 variables with fully disjoint copies: 1 iteration per phase
        mods = manual_modules(
            [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
        )
        res = run_access_protocol(mods, 12, 2)
        assert res.max_phase_iterations == 1

    def test_total_conflict_serializes(self):
        # k variables sharing ALL their modules, forced into one phase:
        # per iteration each of 3 modules serves one copy, so ~k*2/3 iters
        k = 9
        mods = manual_modules([[0, 1, 2]] * k)
        res = run_access_protocol(mods, 5, 2, n_phases=1)
        assert res.max_phase_iterations >= (k * 2) // 3

    def test_majority_stops_early(self):
        # A variable that reaches its majority stops requesting its last
        # copy.  X = [0,1,2] wins modules 0 and 1 in iteration 1 (its
        # copy at module 2 is beaten by earlier competitors) and must
        # then retire; the competitors [2,7,8] serialize on their shared
        # modules.  Total serves: 3 per competitor + only 2 for X.
        mods = manual_modules([[2, 7, 8]] * 4 + [[0, 1, 2]])
        res = run_access_protocol(mods, 10, 2, n_phases=1)
        assert res.mpc_stats.served == 3 * 4 + 2

    def test_all_copies_requested_same_iteration_may_exceed_majority(self):
        # With no contention all q+1 copies are served simultaneously in
        # iteration 1 even though only the majority was required.
        res = run_access_protocol(manual_modules([[0, 1, 2]]), 5, 2)
        assert res.mpc_stats.served == 3
        assert res.max_phase_iterations == 1

    def test_full_quorum(self):
        mods = manual_modules([[0, 1, 2]])
        res = run_access_protocol(mods, 5, 3)
        assert res.mpc_stats.served == 3

    def test_phase_structure(self):
        mods = manual_modules([[i, i + 1, i + 2] for i in range(6)])
        res = run_access_protocol(mods, 10, 2)
        assert len(res.phases) == 3
        # variables 0,3 in phase 0; 1,4 in phase 1; 2,5 in phase 2
        assert all(p.live_history[0] == 2 for p in res.phases)

    def test_n_phases_override(self):
        mods = manual_modules([[i % 5, (i + 1) % 5, (i + 2) % 5] for i in range(10)])
        res1 = run_access_protocol(mods, 5, 2, n_phases=1)
        assert len(res1.phases) == 1
        assert res1.phases[0].live_history[0] == 10

    def test_n_phases_invalid(self):
        with pytest.raises(ValueError):
            run_access_protocol(manual_modules([[0, 1, 2]]), 5, 2, n_phases=0)

    def test_empty_request_set(self):
        mods = np.empty((0, 3), dtype=np.int64)
        res = run_access_protocol(mods, 5, 2)
        assert res.total_iterations == 0


class TestHistories:
    def test_live_history_monotone(self):
        rng = np.random.default_rng(0)
        mods = rng.integers(0, 20, size=(30, 3))
        # fix duplicate copies within rows
        for row in mods:
            while len(set(row.tolist())) < 3:
                row[:] = rng.integers(0, 20, 3)
        res = run_access_protocol(mods, 20, 2)
        for p in res.phases:
            hist = p.live_history
            assert hist == sorted(hist, reverse=True)
            assert hist[-1] == 0
            assert p.iterations == len(hist) - 1

    def test_history_disabled(self):
        mods = manual_modules([[0, 1, 2]])
        res = run_access_protocol(mods, 5, 2, collect_history=False)
        assert res.phases[0].live_history == [] or res.phases[0].iterations >= 0


class TestReadWrite:
    def test_round_trip(self):
        mods = manual_modules([[0, 1, 2], [1, 2, 3], [4, 0, 3]])
        slots = manual_modules([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
        store = SharedCopyStore(5, 3)
        vals = np.array([10, 20, 30])
        run_access_protocol(
            mods, 5, 2, op="write", store=store, slots=slots, values=vals, time=1
        )
        res = run_access_protocol(
            mods, 5, 2, op="read", store=store, slots=slots, time=2
        )
        assert res.values.tolist() == [10, 20, 30]

    def test_unwritten_reads_minus_one(self):
        mods = manual_modules([[0, 1, 2]])
        slots = manual_modules([[0, 0, 0]])
        store = SharedCopyStore(5, 1)
        res = run_access_protocol(mods, 5, 2, op="read", store=store, slots=slots)
        assert res.values.tolist() == [-1]

    def test_majority_intersection_freshness(self):
        # write twice with increasing time; reader must see the new value
        # even though some copies still hold the old one
        mods = manual_modules([[0, 1, 2]])
        slots = manual_modules([[0, 0, 0]])
        store = SharedCopyStore(5, 1)
        run_access_protocol(
            mods, 5, 2, op="write", store=store, slots=slots,
            values=np.array([111]), time=1,
        )
        run_access_protocol(
            mods, 5, 2, op="write", store=store, slots=slots,
            values=np.array([222]), time=2,
        )
        res = run_access_protocol(mods, 5, 2, op="read", store=store, slots=slots)
        assert res.values.tolist() == [222]
        # at most one copy can be stale; verify via direct cell inspection
        stamps = store.stamps[[0, 1, 2], [0, 0, 0]]
        assert np.sort(stamps)[-2] == 2  # at least a majority carries t=2


class TestAccessResultAPI:
    def test_modeled_steps_positive(self):
        mods = manual_modules([[0, 1, 2], [3, 4, 5]])
        res = run_access_protocol(mods, 10, 2)
        assert res.modeled_steps(N=10) > 0
        assert res.modeled_steps(N=10, addressing_steps=7) > 0

    def test_totals(self):
        mods = manual_modules([[0, 1, 2]] * 6)
        res = run_access_protocol(mods, 5, 2)
        assert res.total_iterations == sum(res.iterations_per_phase)
        assert isinstance(res, AccessResult)


class TestDerivedProperties:
    """PhaseTrace/AccessResult arithmetic, pinned on synthetic traces."""

    def make_result(self, phases, q=2):
        from repro.mpc.stats import MPCStats

        return AccessResult(
            op="count", n_requests=0, q=q, phases=phases, values=None,
            mpc_stats=MPCStats(),
        )

    def test_phase_trace_invariant(self):
        from repro.core.protocol import PhaseTrace

        t = PhaseTrace(iterations=3, live_history=[9, 4, 1, 0])
        assert t.iterations == len(t.live_history) - 1

    def test_iterations_per_phase_order(self):
        from repro.core.protocol import PhaseTrace

        res = self.make_result(
            [PhaseTrace(2, [5, 1, 0]), PhaseTrace(4, [7, 5, 3, 1, 0]),
             PhaseTrace(1, [2, 0])]
        )
        assert res.iterations_per_phase == [2, 4, 1]
        assert res.max_phase_iterations == 4
        assert res.total_iterations == 7

    def test_empty_phases_defaults(self):
        res = self.make_result([])
        assert res.iterations_per_phase == []
        assert res.max_phase_iterations == 0  # max() default, no raise
        assert res.total_iterations == 0
        assert res.modeled_steps(N=8) == 0

    def test_modeled_steps_formula(self):
        from repro.core.protocol import PhaseTrace

        # q=2: coord = ceil(log2(3)) + 1 = 3; N=16: addr = 4
        res = self.make_result(
            [PhaseTrace(2, [3, 1, 0]), PhaseTrace(1, [1, 0])], q=2
        )
        assert res.modeled_steps(N=16) == (2 * 3 + 4) + (1 * 3 + 4)
        # explicit addressing_steps overrides the log2(N) default
        assert res.modeled_steps(N=16, addressing_steps=0) == 6 + 3
        assert res.modeled_steps(N=16, addressing_steps=10) == 16 + 13

    def test_modeled_steps_matches_live_run(self):
        mods = manual_modules([[0, 1, 2]] * 4)
        res = run_access_protocol(mods, 5, 2)
        import math

        coord = math.ceil(math.log2(res.q + 1)) + 1
        addr = math.ceil(math.log2(5))
        expect = sum(p.iterations * coord + addr for p in res.phases)
        assert res.modeled_steps(N=5) == expect
