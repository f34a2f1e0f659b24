"""Unit and property tests of the fault-model library.

The models' contract is exactness and reproducibility: a plan is a pure
function of (context, intensity, seed); targeted attacks kill *exactly*
the requested number of copies of each disjoint victim; the schedule's
repair lag is exact to the step.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.models import (
    MODEL_NAMES,
    FaultContext,
    FaultPlan,
    GreyModules,
    RandomCrashes,
    StaleCopies,
    TargetedAttack,
    default_models,
    disjoint_victims,
    make_model,
)
from repro.mpc.faults import FaultSchedule


def _ctx(n_modules=40, v=20, copies=3, majority=2, seed=0, slots=False):
    rng = np.random.default_rng(seed)
    mods = np.empty((v, copies), dtype=np.int64)
    for i in range(v):
        mods[i] = rng.choice(n_modules, copies, replace=False)
    sl = np.broadcast_to(np.arange(v, dtype=np.int64)[:, None], mods.shape)
    return FaultContext(n_modules, mods, majority, slots=sl if slots else None)


class TestContextAndPlan:
    def test_context_properties(self):
        ctx = _ctx(n_modules=10, v=7, copies=5, majority=3)
        assert ctx.n_variables == 7
        assert ctx.copies == 5
        assert ctx.tolerance == 2  # q/2 = copies - majority

    def test_empty_plan_has_empty_kwargs(self):
        plan = FaultPlan()
        assert plan.empty
        assert plan.access_kwargs() == {}

    def test_failed_plan_kwargs(self):
        plan = FaultPlan(failed_modules=np.array([3, 5], dtype=np.int64))
        kw = plan.access_kwargs()
        assert kw["allow_partial"] is True
        np.testing.assert_array_equal(kw["failed_modules"], [3, 5])

    def test_dead_copy_counts(self):
        mods = np.array([[0, 1, 2], [3, 4, 5], [0, 4, 6]])
        plan = FaultPlan(failed_modules=np.array([0, 4], dtype=np.int64))
        np.testing.assert_array_equal(
            plan.dead_copy_counts(mods), [1, 1, 2]
        )

    def test_stale_copy_counts(self):
        plan = FaultPlan(
            stale=(np.array([1, 1, 3]), np.array([0, 2, 1]))
        )
        np.testing.assert_array_equal(
            plan.stale_copy_counts(5), [0, 2, 0, 1, 0]
        )


class TestDisjointVictims:
    def test_victims_are_pairwise_disjoint(self):
        ctx = _ctx(n_modules=30, v=25)
        victims = disjoint_victims(ctx.module_ids, 8)
        seen: set[int] = set()
        for v in victims:
            row = {int(m) for m in ctx.module_ids[int(v)]}
            assert not (row & seen)
            seen |= row

    def test_want_respected(self):
        ctx = _ctx(n_modules=100, v=30)
        assert disjoint_victims(ctx.module_ids, 3).size == 3


class TestIntensityValidation:
    @pytest.mark.parametrize("bad", [-0.1, 1.5, 2.0])
    def test_out_of_range_rejected(self, bad):
        ctx = _ctx()
        for model in default_models():
            with pytest.raises(ValueError, match="intensity"):
                model.plan(ctx, bad)

    def test_zero_intensity_plans_are_empty(self):
        ctx = _ctx(slots=True)
        for model in default_models():
            assert model.plan(ctx, 0.0).empty, model.name


class TestRandomCrashes:
    def test_kill_count_scales_with_intensity(self):
        ctx = _ctx(n_modules=50)
        plan = RandomCrashes().plan(ctx, 0.2, seed=3)
        assert plan.failed_modules.size == 10
        assert np.unique(plan.failed_modules).size == 10
        assert plan.failed_modules.max() < 50

    def test_transient_name_and_schedule(self):
        m = RandomCrashes(repair_lag=4)
        assert m.name == "transient-crash"
        fs = m.schedule(20, 0.5, seed=1)
        assert isinstance(fs, FaultSchedule)
        assert fs.repair_lag == 4

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            RandomCrashes(repair_lag=-1)


class TestTargetedAttack:
    @settings(max_examples=40)
    @given(
        k=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        ctx_seed=st.integers(0, 2**16),
    )
    def test_kills_exactly_k_copies_per_victim(self, k, seed, ctx_seed):
        ctx = _ctx(n_modules=60, v=30, seed=ctx_seed)
        victims = disjoint_victims(ctx.module_ids, 5)
        plan = TargetedAttack(copies_per_victim=k, victims=victims).plan(
            ctx, 1.0, seed=seed
        )
        dead = plan.dead_copy_counts(ctx.module_ids)
        # disjoint victims: exactly k dead copies each, and the targeted
        # record matches what dead_copy_counts reconstructs
        np.testing.assert_array_equal(dead[victims], k)
        assert set(plan.targeted) == {int(v) for v in victims}
        for cols in plan.targeted.values():
            assert cols.size == k

    def test_victim_out_of_range_rejected(self):
        ctx = _ctx(v=10)
        atk = TargetedAttack(victims=np.array([10]))
        with pytest.raises(ValueError, match="victim"):
            atk.plan(ctx, 1.0)

    def test_auto_victim_count_scales(self):
        ctx = _ctx(n_modules=200, v=40)
        plan = TargetedAttack().plan(ctx, 0.5, seed=0)
        assert len(plan.targeted) <= 20
        assert len(plan.targeted) >= 1


class TestGreyModules:
    def test_periods_shape_and_values(self):
        ctx = _ctx(n_modules=30)
        plan = GreyModules(period=4).plan(ctx, 0.5, seed=2)
        assert plan.grey_periods.shape == (30,)
        assert set(np.unique(plan.grey_periods)) == {1, 4}
        assert (plan.grey_periods == 4).sum() == 15
        assert plan.access_kwargs() == {"grey_modules": plan.grey_periods}

    def test_period_below_two_rejected(self):
        with pytest.raises(ValueError):
            GreyModules(period=1)


class TestStaleCopies:
    def test_marks_exactly_k_copies(self):
        ctx = _ctx(v=20, slots=True)
        victims = disjoint_victims(ctx.module_ids, 4)
        plan = StaleCopies(copies_per_victim=2, victims=victims).plan(
            ctx, 1.0, seed=1
        )
        counts = plan.stale_copy_counts(20)
        np.testing.assert_array_equal(counts[victims], 2)
        assert counts.sum() == 2 * victims.size

    def test_apply_requires_slots(self):
        ctx = _ctx(slots=False)
        plan = StaleCopies(victims=np.array([0])).plan(ctx, 1.0)
        with pytest.raises(ValueError, match="slots"):
            StaleCopies.apply(plan, None, ctx, np.zeros(20), 0)

    def test_apply_rolls_back_cells(self):
        from repro.schemes.pp_adapter import PPAdapter

        sch = PPAdapter(2, 3)
        idx = sch.random_request_set(10, seed=0)
        mods, slots = sch.placement_and_slots(idx)
        ctx = FaultContext(sch.N, mods, sch.read_quorum, slots=slots)
        store = sch.make_store()
        old = np.arange(10, dtype=np.int64) + 100
        new = np.arange(10, dtype=np.int64) + 200
        store.write(mods, slots, np.broadcast_to(old[:, None], mods.shape), 1)
        store.write(mods, slots, np.broadcast_to(new[:, None], mods.shape), 2)
        plan = StaleCopies(victims=np.array([3])).plan(ctx, 1.0, seed=5)
        assert StaleCopies.apply(plan, store, ctx, old, 1) == 1
        row, col = plan.stale[0][0], plan.stale[1][0]
        vals, stamps = store.read(mods[row, col], slots[row, col])
        assert int(vals) == 103 and int(stamps) == 1


class TestRegistry:
    def test_every_name_constructs(self):
        for name in MODEL_NAMES:
            assert make_model(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            make_model("meteor")

    def test_default_models_cover_all_names(self):
        assert {m.name for m in default_models()} == set(MODEL_NAMES)


class TestPlanReproducibility:
    @settings(max_examples=30)
    @given(
        intensity=st.floats(0.0, 1.0, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_seed_same_plan(self, intensity, seed):
        ctx = _ctx(slots=True)
        for model in default_models():
            a = model.plan(ctx, intensity, seed=seed)
            b = model.plan(ctx, intensity, seed=seed)
            np.testing.assert_array_equal(a.failed_modules, b.failed_modules)
            assert (a.grey_periods is None) == (b.grey_periods is None)
            if a.grey_periods is not None:
                np.testing.assert_array_equal(a.grey_periods, b.grey_periods)
            assert (a.stale is None) == (b.stale is None)
            if a.stale is not None:
                np.testing.assert_array_equal(a.stale[0], b.stale[0])
                np.testing.assert_array_equal(a.stale[1], b.stale[1])


class TestFaultScheduleProperties:
    @settings(max_examples=40)
    @given(
        n=st.integers(1, 60),
        rate=st.floats(0.0, 1.0, allow_nan=False),
        lag=st.integers(0, 5),
        seed=st.integers(0, 2**16),
        steps=st.integers(1, 12),
    )
    def test_down_set_bounded_by_pool(self, n, rate, lag, seed, steps):
        fs = FaultSchedule(n, rate, repair_lag=lag, seed=seed)
        for _ in range(steps):
            failed = fs.step()
            assert 0 <= failed.size <= n
            assert np.unique(failed).size == failed.size
            if failed.size:
                assert failed.min() >= 0 and failed.max() < n

    @settings(max_examples=20)
    @given(lag=st.integers(1, 6), n=st.integers(1, 20))
    def test_repair_lag_is_exact(self, lag, n):
        # rate 1.0 fails every healthy module at step 1; then freeze the
        # failure process and watch the cohort heal at exactly t=1+lag
        fs = FaultSchedule(n, 1.0, repair_lag=lag, seed=0)
        assert fs.step().size == n
        fs.failure_rate = 0.0
        for _ in range(lag - 1):
            assert fs.step().size == n  # down through t = 1 + lag - 1
        assert fs.step().size == 0  # healthy again at t = 1 + lag

    def test_permanent_without_repair(self):
        fs = FaultSchedule(10, 1.0, repair_lag=0, seed=0)
        assert fs.step().size == 10
        fs.failure_rate = 0.0
        for _ in range(5):
            assert fs.step().size == 10

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**16))
    def test_same_seed_same_trajectory(self, seed):
        a = FaultSchedule(25, 0.3, repair_lag=2, seed=seed)
        b = FaultSchedule(25, 0.3, repair_lag=2, seed=seed)
        for _ in range(6):
            np.testing.assert_array_equal(a.step(), b.step())
