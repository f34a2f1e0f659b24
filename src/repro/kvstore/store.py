"""Open-addressed parallel hash table over shared variables.

Layout: a table of ``capacity`` slots; slot ``s`` owns two shared
variables of the underlying scheme -- ``2s`` (key fingerprint) and
``2s + 1`` (value).

One round of gets, puts and deletes shares ONE probe of its distinct
keys (a :class:`RoundPlan`).  Each probe step is one batched majority
read of a window of consecutive fingerprint cells per pending key --
1, 2, 4, ... slots, doubling per step -- and, for get keys, of the value
cells of the same slots, so a get needs no read after the probe.  A
chain of length L costs about ``log2(L) + 1`` probe steps.  A put then
costs one value-write batch and one fingerprint-claim batch (plus a
re-probe and one more pair per wave of claim collisions), a delete one
tombstone batch: a conflict-free round whose chains all have length 1
costs 4 protocol batches, whatever its size.

Conventions: fingerprints are 31-bit nonzero hashes; an unwritten cell
reads -1 (empty); ``TOMBSTONE`` marks deleted slots, which lookups skip
and inserts may recycle.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

import repro.obs as _obs
from repro.faults.report import QuorumLostError
from repro.schemes.base import MemoryScheme

__all__ = ["ParallelKVStore", "RoundPlan", "TOMBSTONE"]

#: fingerprint sentinel for deleted slots
TOMBSTONE = (1 << 31) - 1

_EMPTY = -1
#: how a partial read returns a cell that lost its quorum
_LOST = -2

#: a round's op order, and the stage of a plan whose batch raised
_GET, _PUT, _DELETE, _SPENT = 0, 1, 2, 3
_OPS = ("get", "put", "delete")
_UNPROBED = np.empty(0, dtype=np.int64)
_UNPROBED.flags.writeable = False


@dataclass(eq=False)
class RoundPlan:
    """One round's get, put and delete keys on one store, probed once.

    Build it with :meth:`ParallelKVStore.plan` and hand it to
    ``batch_get``, ``batch_put`` and ``batch_delete`` in that order,
    each at most once and with the keys it was built from.  The first
    of those calls runs the probe over the distinct keys (reading the
    get keys' values with it); the put records where its keys landed,
    so a delete of a key put in the same round tombstones that slot.
    A call that raises spends the plan.
    """

    store: "ParallelKVStore"
    #: the get, put and delete keys
    keys: tuple[Sequence[int | str], ...]
    #: distinct fingerprints of all keys: the probe's keys
    fps: np.ndarray
    #: per op, the position of each of its keys in ``fps``
    pos: tuple[np.ndarray, ...]
    #: next op allowed (``_SPENT`` after a batch raised)
    stage: int = _GET
    #: probe results per fingerprint, filled by the first call
    probed: bool = False
    found: np.ndarray = field(default_factory=lambda: _UNPROBED)
    slot: np.ndarray = field(default_factory=lambda: _UNPROBED)
    claim: np.ndarray = field(default_factory=lambda: _UNPROBED)
    value: np.ndarray = field(default_factory=lambda: _UNPROBED)


class ParallelKVStore:
    """Replicated parallel key-value store.

    Parameters
    ----------
    scheme:
        The memory organization that stores the table (capacity is
        ``scheme.M // 2`` slots).
    seed:
        Salt for the key hash.
    failed_modules:
        Optional module ids that never serve (fault injection; also
        settable later via :meth:`set_failed_modules`).  While every
        table variable keeps >= ``q/2 + 1`` live copies the store works
        normally; a probe that loses a quorum raises
        :class:`~repro.faults.report.QuorumLostError` instead of
        mistaking an unreachable cell for an empty one.
    var_base:
        Offset added to the variable ids this store *emits* (the
        ``var_ids`` of its batch records); placement is untouched.
        Sharded deployments give each store a disjoint namespace (shard
        ``i`` uses ``i * scheme.M``) so the conformance checker never
        aliases two stores' variables.

    Notes
    -----
    Keys may be Python ints or strings.  Values must fit in
    ``[0, 2^32)`` (the protocol packs values with timestamps).  Each
    batch must contain distinct keys -- combine duplicates upstream, as
    the MPC model does for concurrent same-cell requests.
    """

    def __init__(
        self,
        scheme: MemoryScheme,
        seed: int = 0,
        failed_modules: np.ndarray | None = None,
        var_base: int = 0,
    ):
        if scheme.M < 8:
            raise ValueError("scheme too small to host a table")
        self.scheme = scheme
        self.capacity = scheme.M // 2
        self.seed = seed
        self.var_base = int(var_base)
        self.store = scheme.make_store()
        self._time = 0
        self._emitted = -1
        self.size = 0
        self.mpc_iterations = 0
        self.protocol_rounds = 0
        self.failed_modules: np.ndarray | None = None
        self.set_failed_modules(failed_modules)

    def set_failed_modules(self, failed_modules: np.ndarray | None) -> None:
        """Install (or clear, with None) the failed-module set applied
        to every subsequent batch operation."""
        if failed_modules is None:
            self.failed_modules = None
            return
        arr = np.asarray(failed_modules, dtype=np.int64).reshape(-1)
        self.failed_modules = arr if arr.size else None

    # -- hashing -----------------------------------------------------------

    def _fingerprint(self, keys) -> np.ndarray:
        """Stable 31-bit nonzero fingerprints of int/str keys."""
        out = np.empty(len(keys), dtype=np.int64)
        salt = self.seed.to_bytes(8, "little")
        for i, key in enumerate(keys):
            data = (
                int(key).to_bytes(16, "little", signed=True)
                if isinstance(key, (int, np.integer))
                else str(key).encode()
            )
            h = hashlib.blake2b(data, digest_size=8, key=salt).digest()
            fp = int.from_bytes(h, "little") % ((1 << 31) - 2) + 1
            out[i] = fp  # in [1, 2^31 - 2]: never EMPTY, never TOMBSTONE
        return out

    def _home(self, fps: np.ndarray) -> np.ndarray:
        """Home slot of each fingerprint."""
        return (fps * np.int64(2654435761)) % self.capacity

    def fingerprints(self, keys: Sequence[int | str]) -> np.ndarray:
        """Public view of the table's key fingerprints (stable per
        seed).  Distinct keys with equal fingerprints alias to the same
        slot; callers building large key sets can screen them out."""
        return self._fingerprint(keys)

    def locate(
        self, keys: Sequence[int | str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probe for each key's table slot: ``(found_mask, slot)``.

        Runs real protocol reads (advances the store clock); the slot
        of a missing key is -1.  Fault-injection harnesses use this to
        map keys onto the scheme variables that store them (slot ``s``
        holds the fingerprint in variable ``2s`` and the value in
        ``2s + 1``).
        """
        found, slot, _, _ = self._probe(self._distinct_fps(keys))
        return found, slot

    def plan(
        self,
        gets: Sequence[int | str] = (),
        puts: Sequence[int | str] = (),
        deletes: Sequence[int | str] = (),
    ) -> RoundPlan:
        """A :class:`RoundPlan` for one round's keys (each list distinct)."""
        keys = (gets, puts, deletes)
        fps = [self._distinct_fps(ks) for ks in keys]
        uniq, inverse = np.unique(np.concatenate(fps), return_inverse=True)
        pos = tuple(np.split(inverse, np.cumsum([len(gets), len(puts)])))
        return RoundPlan(self, keys, uniq, pos)

    # -- protocol plumbing ------------------------------------------------------

    def _tick(self) -> int:
        self._time += 1
        return self._time

    @property
    def clock(self) -> int:
        """The store's logical round clock (after the last batch)."""
        return self._time

    def sync_clock(self, time: int) -> int:
        """Advance the logical clock to at least ``time`` (never back).

        Lets several stores share one monotone round order -- the
        sharded service syncs every shard to the global service clock
        before each batch so the kv records stay totally ordered
        across shards for the streaming checker.
        """
        self._time = max(self._time, int(time))
        return self._time

    def _fault_kwargs(self) -> dict:
        """Degraded-mode protocol kwargs (empty on the healthy path)."""
        if self.failed_modules is None:
            return {}
        return {"failed_modules": self.failed_modules, "allow_partial": True}

    def _check_quorum(self, op: str, var_ids: np.ndarray, res) -> None:
        """Raise :class:`QuorumLostError` if any table variable of the
        batch lost its quorum -- a partial probe answer would be
        indistinguishable from an empty cell."""
        if res.unsatisfiable is not None and res.unsatisfiable.size:
            raise self._quorum_lost(
                op, np.asarray(var_ids)[res.unsatisfiable],
                res.fault_report.implicated_modules
                if res.fault_report is not None else self.failed_modules,
            )

    def _quorum_lost(
        self, op: str, lost_vars: np.ndarray, modules: np.ndarray | None
    ) -> QuorumLostError:
        return QuorumLostError(
            f"kvstore {op} lost the majority quorum for "
            f"{lost_vars.size} table variable(s) under "
            f"{0 if self.failed_modules is None else self.failed_modules.size} "
            f"failed modules",
            variables=lost_vars,
            modules=modules,
        )

    def _read_vars(
        self, var_ids: np.ndarray, partial: bool = False
    ) -> np.ndarray:
        """One batched majority read of (possibly duplicated) variables.

        A variable that lost its quorum raises :class:`QuorumLostError`,
        or with ``partial`` reads as ``_LOST``, for a caller that raises
        only for the cells its answer depends on."""
        uniq, inverse = np.unique(var_ids, return_inverse=True)
        res = self.scheme.read(
            uniq, store=self.store, time=self._tick(), var_base=self.var_base,
            **self._fault_kwargs(),
        )
        values = res.values
        if partial and res.unsatisfiable is not None:
            values = values.copy()
            values[res.unsatisfiable] = _LOST
        else:
            self._check_quorum("read", uniq, res)
        self.mpc_iterations += res.total_iterations
        self.protocol_rounds += 1
        return values[inverse]

    def _write_vars(self, var_ids: np.ndarray, values: np.ndarray) -> None:
        """One batched majority write (var_ids must be distinct)."""
        res = self.scheme.write(
            var_ids, values=values, store=self.store, time=self._tick(),
            var_base=self.var_base, **self._fault_kwargs(),
        )
        self._check_quorum("write", var_ids, res)
        self.mpc_iterations += res.total_iterations
        self.protocol_rounds += 1

    # -- probing core ------------------------------------------------------------

    def _distinct_fps(self, keys: Sequence[int | str]) -> np.ndarray:
        fps = self._fingerprint(keys)
        if np.unique(fps).size != fps.size:
            raise ValueError("batch contains duplicate keys")
        return fps

    def _probe(
        self,
        fps: np.ndarray,
        with_value: np.ndarray | None = None,
        first: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Find each distinct fingerprint's slot: returns
        ``(found, slot, claim, value)``.

        ``slot`` is the key's slot when found; ``claim`` is where an
        insert should go (first tombstone on the chain, else the empty
        slot that terminated it); ``value`` is the found slot's value
        cell for the keys ``with_value`` marks, else -1.  Each step
        reads a window of consecutive slots per pending key, twice as
        wide as the last one, from its home slot or from ``first``.
        Raises :class:`QuorumLostError` when a cell an answer depends
        on lost its quorum; cells past a chain's end may.
        """
        B = fps.shape[0]
        found = np.zeros(B, dtype=bool)
        slot = np.full(B, -1, dtype=np.int64)
        claim = np.full(B, -1, dtype=np.int64)
        value = np.full(B, -1, dtype=np.int64)
        want = np.zeros(B, dtype=bool) if with_value is None else with_value
        home = self._home(fps) if first is None else first
        pending = np.arange(B)
        offset = rounds = 0
        with _obs.span("kvstore.probe", batch=int(B)) as sp:
            while pending.size:
                if offset >= self.capacity:
                    raise RuntimeError(
                        "table full: probe chain exhausted capacity"
                    )
                w = min(1 << rounds, self.capacity - offset)
                rounds += 1
                cur = home[pending, None] + np.arange(offset, offset + w)
                cur %= self.capacity
                offset += w
                reads = want[pending]
                got = self._read_vars(np.concatenate(
                    [2 * cur.ravel(), 2 * cur[reads].ravel() + 1]
                ), partial=True)
                cells = got[: cur.size].reshape(cur.shape)
                vals = np.full(cur.shape, _EMPTY, dtype=np.int64)
                vals[reads] = got[cur.size:].reshape(-1, w)
                mine = cells == fps[pending, None]
                ends = mine | (cells == _EMPTY)
                stop = ends.any(axis=1)
                # chain end within the window (w when it lies beyond)
                end = np.where(stop, ends.argmax(axis=1), w)
                tomb = (cells == TOMBSTONE) & (np.arange(w) < end[:, None])
                # record the first recyclable slot on the chain
                rec = np.nonzero(tomb.any(axis=1) & (claim[pending] < 0))[0]
                claim[pending[rec]] = cur[rec, tomb[rec].argmax(axis=1)]
                rows = np.nonzero(stop)[0]
                at, hit = cur[rows, end[rows]], mine[rows, end[rows]]
                hr = rows[hit]
                value_at = vals[hr, end[hr]]
                # the answer depends on the chain up to its end and on a
                # found get key's value, not on the cells past the end
                lost = (cells == _LOST) & (np.arange(w) <= end[:, None])
                lost_value = value_at == _LOST
                if lost.any() or lost_value.any():
                    raise self._quorum_lost("read", np.concatenate(
                        [2 * cur[lost], 2 * at[hit][lost_value] + 1]
                    ), self.failed_modules)
                keys = pending[rows]
                found[keys[hit]] = True
                slot[keys[hit]] = at[hit]
                value[keys[hit]] = value_at
                # a chain that ends empty claims that slot unless a
                # tombstone came first
                free = ~hit & (claim[keys] < 0)
                claim[keys[free]] = at[free]
                pending = pending[~stop]
            sp.add(rounds=rounds)
        return found, slot, claim, value

    def _begin(
        self, plan: RoundPlan | None, op: int, keys: Sequence[int | str]
    ) -> RoundPlan:
        """The plan a ``batch_*`` call runs on, probed: ``plan``, or a
        one-op plan of ``keys``.  The plan stays spent until
        :meth:`_emit` completes the call."""
        if plan is None:
            plan = self.plan(**{f"{_OPS[op]}s": keys})
        elif plan.store is not self:
            raise ValueError("plan belongs to another store")
        elif op < plan.stage:
            raise ValueError(
                "a plan runs get, put, delete in that order, each once, "
                "and none after a batch raised"
            )
        elif len(keys) != len(plan.keys[op]):
            raise ValueError(f"{_OPS[op]} keys differ from the plan's")
        plan.stage = _SPENT
        if not plan.probed:
            with_value = np.zeros(plan.fps.size, dtype=bool)
            with_value[plan.pos[_GET]] = True
            plan.found, plan.slot, plan.claim, plan.value = self._probe(
                plan.fps, with_value
            )
            plan.probed = True
        return plan

    def _emit(
        self, plan: RoundPlan, op: int, keys: Sequence[int | str],
        values: np.ndarray,
    ) -> None:
        """Complete a ``batch_*`` call: open the plan's next op and hand
        the batch to :func:`repro.obs.emit` as one
        :class:`~repro.obs.record.KvRecord`, stamped with the store's
        clock after the batch.  The clock ticks when the call issued no
        protocol batch, so successive records are strictly ordered."""
        plan.stage = op + 1
        if self._time <= self._emitted:
            self._tick()
        self._emitted = self._time
        if _obs.enabled():
            _obs.emit(_obs.KvRecord(
                op=_OPS[op], keys=tuple(keys),
                values=np.array(values).ravel(), time=self._time,
            ))

    # -- public API ------------------------------------------------------------------

    def batch_put(
        self,
        keys: Sequence[int | str],
        values: np.ndarray | Sequence[int],
        plan: RoundPlan | None = None,
    ) -> dict[str, int]:
        """Insert/update a batch of distinct keys in parallel.

        Returns a stats dict (inserted, updated, protocol rounds used).
        """
        values = np.asarray(values, dtype=np.int64)
        if len(keys) != values.shape[0]:
            raise ValueError("keys and values must have equal length")
        if ((values < 0) | (values >= 1 << 32)).any():
            raise ValueError("values must be in [0, 2^32)")
        plan = self._begin(plan, _PUT, keys)
        at = plan.pos[_PUT]
        found, slot, fps = plan.found[at], plan.slot[at], plan.fps[at]
        new = np.nonzero(~found)[0]
        claim = plan.claim[at[new]]
        # updates ride in the first wave's value write
        cells, vals = 2 * slot[found] + 1, values[found]
        while True:
            # several new keys may want one slot: the lowest batch index
            # wins, the rest re-probe against the updated table
            order = np.argsort(claim, kind="stable")
            lead = np.ones(new.size, dtype=bool)
            np.not_equal(claim[order][1:], claim[order][:-1], out=lead[1:])
            win = np.zeros(new.size, dtype=bool)
            win[order[lead]] = True
            w = new[win]
            slot[w] = claim[win]
            # value first, then the fingerprint claim: a recycled slot
            # still holds its deleted tenant's value, so a claim that
            # committed before a lost value write would serve that
            # value as the new key's.
            cells = np.concatenate([cells, 2 * slot[w] + 1])
            if cells.size:
                self._write_vars(cells, np.concatenate([vals, values[w]]))
            if w.size:
                self._write_vars(2 * slot[w], fps[w])
            self.size += w.size
            if win.all():
                break
            # a loser's chain up to its lost claim is occupied now, so
            # its re-probe starts just past that slot
            new, claim = new[~win], claim[~win]
            claim = self._probe(fps[new], first=claim + 1)[2]
            cells = vals = np.empty(0, dtype=np.int64)
        plan.found[at] = True
        plan.slot[at] = slot
        self._emit(plan, _PUT, keys, values)
        return {
            "inserted": int((~found).sum()),
            "updated": int(found.sum()),
            "protocol_rounds": self.protocol_rounds,
        }

    def batch_get(
        self, keys: Sequence[int | str], plan: RoundPlan | None = None
    ) -> np.ndarray:
        """Parallel lookup; returns values, -1 for missing keys."""
        plan = self._begin(plan, _GET, keys)
        out = plan.value[plan.pos[_GET]]
        self._emit(plan, _GET, keys, out)
        return out

    def batch_delete(
        self, keys: Sequence[int | str], plan: RoundPlan | None = None
    ) -> int:
        """Parallel delete; returns the number of keys removed."""
        plan = self._begin(plan, _DELETE, keys)
        at = plan.pos[_DELETE]
        found = plan.found[at]
        removed = int(found.sum())
        if removed:
            self._write_vars(
                2 * plan.slot[at[found]],
                np.full(removed, TOMBSTONE, dtype=np.int64),
            )
            self.size -= removed
            plan.found[at] = False
        self._emit(plan, _DELETE, keys, found.astype(np.int64))
        return removed

    def scan(self) -> tuple[np.ndarray, np.ndarray]:
        """Full-table scan: returns (fingerprints, values) of every
        occupied slot, in slot order.

        One batched read over all fingerprint cells plus one over the
        occupied value cells -- two protocol rounds regardless of size.
        """
        slots = np.arange(self.capacity, dtype=np.int64)
        fps = self._read_vars(2 * slots)
        occupied = (fps != _EMPTY) & (fps != TOMBSTONE)
        if not occupied.any():
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        vals = self._read_vars(2 * slots[occupied] + 1)
        return fps[occupied], vals

    def cost_summary(self) -> dict:
        """Accumulated simulated-machine cost."""
        return {
            "size": self.size,
            "capacity": self.capacity,
            "protocol_rounds": self.protocol_rounds,
            "mpc_iterations": self.mpc_iterations,
        }

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"ParallelKVStore(size={self.size}, capacity={self.capacity}, "
            f"scheme={getattr(self.scheme, 'name', '?')})"
        )
