"""Degraded-mode kvstore tests: safety when table variables lose quorum.

The hash table's probing cannot distinguish "cell unreachable" from
"cell empty", so the store must refuse (raise
:class:`QuorumLostError`) rather than return silently wrong answers --
and keep working normally while every table variable retains a
majority of live copies.
"""

import numpy as np
import pytest

from repro.faults.report import QuorumLostError
from repro.kvstore.store import ParallelKVStore
from repro.schemes.pp_adapter import PPAdapter


@pytest.fixture()
def kv():
    return ParallelKVStore(PPAdapter(2, 3), seed=4)


class TestToleratedFailures:
    def test_single_failed_module_is_transparent(self, kv):
        kv.batch_put(["a", "b", "c"], [1, 2, 3])
        kv.set_failed_modules([5])
        np.testing.assert_array_equal(kv.batch_get(["a", "b", "c"]), [1, 2, 3])
        kv.batch_put(["d"], [4])  # writes survive a tolerated failure too
        assert kv.batch_get(["d"])[0] == 4
        assert kv.batch_delete(["a"]) == 1
        assert kv.batch_get(["a"])[0] == -1

    def test_constructor_accepts_failed_modules(self):
        kv = ParallelKVStore(PPAdapter(2, 3), failed_modules=[7])
        kv.batch_put(["x"], [9])
        assert kv.batch_get(["x"])[0] == 9

    def test_set_failed_modules_normalizes(self, kv):
        kv.set_failed_modules(np.empty(0, dtype=np.int64))
        assert kv.failed_modules is None
        kv.set_failed_modules([3, 4])
        np.testing.assert_array_equal(kv.failed_modules, [3, 4])
        kv.set_failed_modules(None)
        assert kv.failed_modules is None


class TestQuorumLoss:
    def test_massive_failure_raises_not_lies(self, kv):
        kv.batch_put(["a", "b", "c"], [1, 2, 3])
        kv.set_failed_modules(np.arange(kv.scheme.N - 1))
        with pytest.raises(QuorumLostError) as exc:
            kv.batch_get(["a", "b", "c"])
        assert exc.value.variables.size > 0
        assert exc.value.modules.size > 0
        # heal and the data is still there -- the refusal protected it
        kv.set_failed_modules(None)
        np.testing.assert_array_equal(kv.batch_get(["a", "b", "c"]), [1, 2, 3])

    def test_put_under_quorum_loss_raises(self, kv):
        kv.set_failed_modules(np.arange(kv.scheme.N - 1))
        with pytest.raises(QuorumLostError):
            kv.batch_put(["k"], [1])

    def test_lost_cells_past_the_chain_end_do_not_fail_the_probe(self):
        # B shares A's home h: its probe reads h, then the window
        # h+1 (empty, the chain's end) and h+2.  Cells past the end,
        # and the value cells of slots that do not hold B, may lose
        # their quorum without failing B's get.
        sch = PPAdapter(2, 5)
        kv = ParallelKVStore(sch, seed=0)
        cap = kv.capacity
        cands = list(range(20_000))
        homes = kv._home(kv.fingerprints(cands))

        def modules(var):
            return set(sch.placement(np.array([var])).ravel().tolist())

        for a in cands:
            h = int(homes[a])
            keep = modules(2 * h) | modules(2 * ((h + 1) % cap))
            past = [2 * ((h + 2) % cap)] + [
                2 * ((h + i) % cap) + 1 for i in (1, 2)
            ]
            down = set().union(*(modules(v) for v in past)) - keep
            bs = [b for b in cands if b != a and homes[b] == h]
            if bs and all(len(modules(v) & down) >= 2 for v in past):
                b = bs[0]
                break
        else:  # pragma: no cover - the search space is ample
            pytest.skip("no suitable key pair")
        kv.batch_put([a], [5])
        kv.set_failed_modules(sorted(down))
        assert kv.batch_get([b, a]).tolist() == [-1, 5]

    def test_a_failed_batch_spends_the_plan(self, kv):
        kv.batch_put(["a"], [1])
        plan = kv.plan(gets=["a"], puts=["b"])
        kv.set_failed_modules(np.arange(kv.scheme.N - 1))
        with pytest.raises(QuorumLostError):
            kv.batch_get(["a"], plan=plan)
        kv.set_failed_modules(None)
        with pytest.raises(ValueError, match="raised"):
            kv.batch_put(["b"], [2], plan=plan)
        assert kv.batch_get(["a", "b"]).tolist() == [1, -1]


class TestRecycledSlot:
    def test_lost_value_write_never_serves_the_deleted_tenants_value(self):
        # Delete X, then insert Y into X's tombstone while every copy of
        # the slot's value cell is down: Y's put must be declared lost,
        # and after healing a get of Y must answer -1 (or lost), never
        # X's value from the recycled cell.
        sch = PPAdapter(2, 5)
        kv = ParallelKVStore(sch, seed=0)
        cap = kv.capacity
        cands = list(range(20_000))
        homes = kv._home(kv.fingerprints(cands))

        def modules(slot_var):
            return set(sch.placement(np.array([slot_var])).ravel().tolist())

        for x in cands:
            h = int(homes[x])
            value_mods = modules(2 * h + 1)
            # Y's probe reads slot h, then the window h+1, h+2
            probed = set().union(
                *(modules(2 * ((h + i) % cap)) for i in range(3))
            )
            ys = [y for y in cands if y != x and homes[y] == h]
            if ys and not value_mods & probed:
                y = ys[0]
                break
        else:  # pragma: no cover - the search space is ample
            pytest.skip("no suitable key pair")
        kv.batch_put([x], [111])
        assert kv.batch_delete([x]) == 1
        kv.set_failed_modules(sorted(value_mods))
        with pytest.raises(QuorumLostError):
            kv.batch_put([y], [222])
        kv.set_failed_modules(None)
        assert kv.batch_get([y])[0] == -1
