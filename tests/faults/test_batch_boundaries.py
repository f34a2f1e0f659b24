"""Batch-boundary sweep of the fused shard round under crash faults.

One scripted service round holds every kind of work a shard round can
do: gets, updates, an insert into a recycled tombstone, a claim
collision, a delete, and a put and a delete of one new key.  For every
protocol batch ``k`` of each shard round, batch ``k`` raises
:class:`QuorumLostError` -- either before it touches the store or after
it has written (a torn write) -- and every outcome, followed by
fault-free read-backs and a rewrite, must replay through
:class:`AdmissibleOracle` with no mismatch.

The directed case at the end pins the fused read: a get whose
fingerprint cell keeps its quorum while its value cell loses it must be
declared lost, never answered from the surviving copy.
"""

import numpy as np
import pytest

from repro.faults.report import QuorumLostError
from repro.service.batcher import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    ServiceConfig,
    ServiceCore,
)
from repro.service.errors import STATUS_LOST, STATUS_OK
from repro.service.testing import AdmissibleOracle

_CFG = dict(n_shards=2, q=2, n=3, seed=0, watchdog=False)
_MODES = ("before", "after")


def _pick(core: ServiceCore, shard: int, homes: list[int]) -> dict[int, list]:
    """Int keys routed to ``shard``, grouped by the home slot each of
    ``homes`` names (the first key of each home first)."""
    st = core.store.shards[shard]
    cands = np.arange(20_000, dtype=np.int64)
    cands = cands[core.store.route_ints(cands) == shard]
    home = st._home(st.fingerprints(cands.tolist()))
    return {h: cands[home == h].tolist() for h in homes}


def _spaced_homes(core: ServiceCore, shard: int, count: int) -> list[int]:
    """``count`` home slots four apart that at least two keys share."""
    st = core.store.shards[shard]
    homes = list(range(0, st.capacity - 3, 4))[:count]
    assert len(homes) == count
    picked = _pick(core, shard, homes)
    assert all(len(picked[h]) >= 2 for h in homes)
    return homes


class _Script:
    """The scripted rounds: two setup rounds, the round under test,
    then read-back, rewrite and read-back rounds."""

    def __init__(self, core: ServiceCore):
        a, u, hx, hc, d, p = _spaced_homes(core, 0, 6)
        k0 = _pick(core, 0, [a, u, hx, hc, d, p])
        self.A, self.U, self.D, self.P = (k0[h][0] for h in (a, u, d, p))
        # X and Y share a home: Y recycles X's tombstone
        self.X, self.Y = k0[hx][:2]
        # C1 and C2 share a home: both claim it, C2 loses the claim
        self.C1, self.C2 = k0[hc][:2]
        g1, u1, n1, d1 = _spaced_homes(core, 1, 4)
        k1 = _pick(core, 1, [g1, u1, n1, d1])
        self.G1, self.U1, self.N1, self.D1 = (
            k1[h][0] for h in (g1, u1, n1, d1)
        )
        self.keys = [
            self.A, self.U, self.X, self.Y, self.C1, self.C2, self.D,
            self.P, self.G1, self.U1, self.N1, self.D1,
        ]

    def setup(self) -> list[list[tuple[int, int, int]]]:
        return [
            [(OP_PUT, k, v) for k, v in (
                (self.A, 1), (self.U, 2), (self.X, 3), (self.D, 4),
                (self.G1, 5), (self.U1, 6), (self.D1, 7),
            )],
            [(OP_DELETE, self.X, 0)],
        ]

    def under_test(self) -> list[tuple[int, int, int]]:
        return [
            (OP_GET, self.A, 0), (OP_GET, self.U, 0), (OP_GET, self.Y, 0),
            (OP_PUT, self.U, 20), (OP_PUT, self.Y, 21),
            (OP_PUT, self.C1, 22), (OP_PUT, self.C2, 23),
            (OP_PUT, self.P, 24),
            (OP_DELETE, self.D, 0), (OP_DELETE, self.P, 0),
            (OP_GET, self.G1, 0), (OP_PUT, self.U1, 60),
            (OP_PUT, self.N1, 61), (OP_DELETE, self.D1, 0),
        ]

    def after(self) -> list[list[tuple[int, int, int]]]:
        read = [(OP_GET, k, 0) for k in self.keys]
        rewrite = [(OP_PUT, k, 100 + i) for i, k in enumerate(self.keys)]
        return [read, rewrite, read]


def _run(core: ServiceCore, ops: list[tuple[int, int, int]]):
    """Run ``ops`` as one round, one session each."""
    n = len(ops)
    op, key, val = (np.asarray(col, dtype=np.int64) for col in zip(*ops))
    assert core.submit_batch(np.arange(n), op, key, val).all()
    res = core.run_round()
    assert core.pending == 0
    return res


class _Injector:
    """Counts one shard store's protocol batches; batch ``fail_at``
    raises, before or after it runs."""

    def __init__(self, st, fail_at: int = -1, mode: str = "before"):
        self.calls = 0
        self.armed = False
        self.fail_at = fail_at
        self.mode = mode
        for name in ("_read_vars", "_write_vars"):
            setattr(st, name, self._wrap(getattr(st, name)))

    def _wrap(self, fn):
        def batch(*args, **kwargs):
            if not self.armed:
                return fn(*args, **kwargs)
            k = self.calls
            self.calls += 1
            if k == self.fail_at and self.mode == "before":
                raise QuorumLostError(f"injected before batch {k}")
            out = fn(*args, **kwargs)
            if k == self.fail_at:
                raise QuorumLostError(f"injected after batch {k}")
            return out

        return batch


def _scenario(shard: int = 0, fail_at: int = -1, mode: str = "before"):
    """Play the script with one injected loss on ``shard``; returns the
    oracle, the round under test, the injector and the core."""
    core = ServiceCore(ServiceConfig(**_CFG))
    script = _Script(core)
    core.register_sessions(len(script.keys) + 2)
    oracle = AdmissibleOracle()
    inj = _Injector(core.store.shards[shard], fail_at, mode)
    with core:
        for ops in script.setup():
            res = _run(core, ops)
            assert (res.status == STATUS_OK).all()
            oracle.apply_round(res)
        inj.armed = True
        tested = _run(core, script.under_test())
        inj.armed = False
        oracle.apply_round(tested)
        for ops in script.after():
            res = _run(core, ops)
            assert (res.status == STATUS_OK).all()
            oracle.apply_round(res)
    return oracle, tested, inj, core


def _baseline_batches() -> list[int]:
    return [_scenario(s)[2].calls for s in range(_CFG["n_shards"])]


def test_script_exercises_every_path():
    core = ServiceCore(ServiceConfig(**_CFG))
    s = _Script(core)
    core.register_sessions(len(s.keys) + 2)
    with core:
        for ops in s.setup():
            _run(core, ops)
        res = _run(core, s.under_test())
        st = core.store.enter_shard(0)
        try:
            found, slot = st.locate([s.Y, s.C1, s.C2, s.P, s.D])
        finally:
            core.store.leave_shard(st)
    assert (res.status == STATUS_OK).all()
    get = res.op == OP_GET
    assert dict(zip(res.key[get].tolist(), res.value[get].tolist())) == {
        s.A: 1, s.U: 2, s.Y: -1, s.G1: 5,
    }
    # Y recycled X's tombstone, C2 lost its claim to C1 and landed
    # next to it, and the put+delete of P ended deleted
    hx, hc = (int(st._home(st.fingerprints([k]))[0]) for k in (s.X, s.C1))
    assert found.tolist() == [True, True, True, False, False]
    assert slot[:3].tolist() == [hx, hc, (hc + 1) % st.capacity]


@pytest.mark.parametrize("mode", _MODES)
def test_every_batch_boundary_replays_admissibly(mode):
    counts = _baseline_batches()
    assert counts[0] >= 6 and counts[1] >= 3
    phase = {OP_GET: 0, OP_PUT: 1, OP_DELETE: 2}
    for shard, count in enumerate(counts):
        for k in range(count):
            oracle, res, inj, core = _scenario(shard, k, mode)
            where = f"shard {shard} batch {k} ({mode})"
            assert inj.calls == k + 1, where
            assert oracle.ok, (where, oracle.mismatches)
            in_s = core.store.route_ints(res.key) == shard
            assert (res.status[~in_s] == STATUS_OK).all(), where
            # the op that raised and every later op of the shard round
            # are lost; the ops before it keep their answers
            lost = res.status[in_s] == STATUS_LOST
            stage = np.vectorize(phase.get)(res.op[in_s])
            assert lost.any(), where
            first = stage[lost].min()
            assert (lost == (stage >= first)).all(), where


def test_value_cell_quorum_loss_fails_the_fused_get():
    core = ServiceCore(ServiceConfig(**_CFG))
    core.register_sessions(1)
    sch = core.store.shards[0].scheme
    with core:
        for key in range(500):
            if core.store.route_one(key) != 0:
                continue
            _run(core, [(OP_PUT, key, 7)])
            st = core.store.enter_shard(0)
            try:
                found, slot = st.locate([key])
            finally:
                core.store.leave_shard(st)
            s = int(slot[0])
            home = int(st._home(st.fingerprints([key]))[0])
            fp_mods = set(sch.placement(np.array([2 * s])).ravel().tolist())
            val_mods = set(
                sch.placement(np.array([2 * s + 1])).ravel().tolist()
            )
            down = sorted(val_mods - fp_mods)
            if found[0] and s == home and len(down) >= 2:
                break
            _run(core, [(OP_DELETE, key, 0)])
        else:  # pragma: no cover - the search space is ample
            pytest.skip("no key whose value cell can fail alone")
        # the fingerprint cell keeps all its copies; the value cell
        # keeps at most one of three
        core.store.set_failed_modules(0, down)
        res = _run(core, [(OP_GET, key, 0)])
        assert res.status.tolist() == [STATUS_LOST]
        assert res.value.tolist() == [-1]
        core.store.set_failed_modules(0, None)
        res = _run(core, [(OP_GET, key, 0)])
        assert (res.status.tolist(), res.value.tolist()) == ([STATUS_OK], [7])
