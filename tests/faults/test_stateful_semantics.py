"""Stateful memory-semantics test of the store under tolerated faults.

A Hypothesis rule machine drives the paper's q=2 scheme (3 copies,
quorum 2) through interleaved batched writes, reads, module crashes,
repairs, and stale-copy attacks, mirroring every write in a plain dict.
The fault pressure stays within the tolerated budget -- at most one
failed module at a time (= q/2 dead copies per variable, as copies of a
variable occupy distinct modules), and at most one stale copy ever per
variable, rolled back from a fully propagated write -- so the majority
discipline guarantees every read returns the latest completed write.
Any divergence from the dict is a memory-semantics bug.
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

from repro.schemes.pp_adapter import PPAdapter

#: the smallest paper instance: N=63 modules, M=84 variables
_ADAPTER = PPAdapter(2, 3)


class FaultyStoreMachine(RuleBasedStateMachine):
    """Interleaved ops on one store vs a dict reference model."""

    def __init__(self):
        super().__init__()
        self.sch = _ADAPTER
        self.store = self.sch.make_store()
        self.model: dict[int, int] = {}
        self.time = 0
        self.failed: np.ndarray | None = None
        self.stale_used: set[int] = set()

    def _tick(self) -> int:
        self.time += 1
        return self.time

    def _kw(self) -> dict:
        if self.failed is None:
            return {}
        return {"failed_modules": self.failed, "allow_partial": True}

    @initialize()
    def seed_some_data(self):
        idx = np.arange(0, 84, 7, dtype=np.int64)
        vals = idx * 3 + 1
        self.sch.write(idx, values=vals, store=self.store, time=self._tick())
        self.model.update(zip(idx.tolist(), vals.tolist()))

    @rule(
        vars=st.lists(
            st.integers(0, 83), min_size=1, max_size=6, unique=True
        ),
        salt=st.integers(0, 1 << 16),
    )
    def write_batch(self, vars, salt):
        idx = np.asarray(vars, dtype=np.int64)
        vals = (idx * 131 + salt) % (1 << 20)
        res = self.sch.write(
            idx, values=vals, store=self.store, time=self._tick(), **self._kw()
        )
        assert res.unsatisfiable is None  # <= q/2 dead copies per var
        self.model.update(zip(idx.tolist(), vals.tolist()))

    @precondition(lambda self: bool(self.model))
    @rule(data=st.data())
    def read_batch(self, data):
        keys = data.draw(
            st.lists(
                st.sampled_from(sorted(self.model)),
                min_size=1,
                max_size=8,
                unique=True,
            )
        )
        idx = np.asarray(keys, dtype=np.int64)
        res = self.sch.read(
            idx, store=self.store, time=self._tick(), **self._kw()
        )
        assert res.unsatisfiable is None
        expect = np.asarray([self.model[k] for k in keys], dtype=np.int64)
        np.testing.assert_array_equal(res.values, expect)

    @rule(m=st.integers(0, 62))
    def fail_module(self, m):
        self.failed = np.asarray([m], dtype=np.int64)

    @rule()
    def heal(self):
        self.failed = None

    @precondition(
        lambda self: bool(set(self.model) - self.stale_used)
    )
    @rule(data=st.data(), salt=st.integers(0, 1 << 16))
    def stale_attack(self, data, salt):
        """Fully propagate a fresh write to all 3 copies of one variable,
        then roll exactly one copy back to the old state -- one stale
        copy is within the q/2 budget, so reads must stay exact."""
        var = data.draw(
            st.sampled_from(sorted(set(self.model) - self.stale_used))
        )
        copy = data.draw(st.integers(0, 2))
        idx = np.asarray([var], dtype=np.int64)
        mods, slots = self.sch.placement_and_slots(idx)
        old_val = self.model[var]
        old_time = self.time
        new_val = (var * 977 + salt) % (1 << 20)
        self.store.write(
            mods, slots, np.full_like(mods, new_val), self._tick()
        )
        self.store.write(
            mods[0, copy], slots[0, copy], old_val, old_time
        )
        self.model[var] = int(new_val)
        self.stale_used.add(var)

    @invariant()
    def spot_check_one_key(self):
        if not self.model:
            return
        var = sorted(self.model)[len(self.model) // 2]
        idx = np.asarray([var], dtype=np.int64)
        res = self.sch.read(
            idx, store=self.store, time=self._tick(), **self._kw()
        )
        assert res.unsatisfiable is None
        assert int(res.values[0]) == self.model[var]


FaultyStoreMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25
)

TestFaultyStoreSemantics = FaultyStoreMachine.TestCase
