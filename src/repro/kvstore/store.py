"""Open-addressed parallel hash table over shared variables.

Layout: a table of ``capacity`` slots; slot ``s`` owns two shared
variables of the underlying scheme -- ``2s`` (key fingerprint) and
``2s + 1`` (value).  Batches of operations probe in parallel: each
round issues ONE batched majority access for every key still probing,
so a batch of B operations with maximum probe chain L costs L protocol
rounds, not B.

Conventions: fingerprints are 31-bit nonzero hashes; an unwritten cell
reads -1 (empty); ``TOMBSTONE`` marks deleted slots, which lookups skip
and inserts may recycle.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

import repro.obs as _obs
from repro.faults.report import QuorumLostError
from repro.schemes.base import MemoryScheme

__all__ = ["ParallelKVStore", "TOMBSTONE"]

#: fingerprint sentinel for deleted slots
TOMBSTONE = (1 << 31) - 1

_EMPTY = -1


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
        for i, key in enumerate(keys):
            data = (
                int(key).to_bytes(16, "little", signed=True)
                if isinstance(key, (int, np.integer))
                else str(key).encode()
            )
            h = hashlib.blake2b(
                data, digest_size=8, key=self.seed.to_bytes(8, "little")
            ).digest()
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
        fps = self._fingerprint(keys)
        if np.unique(fps).size != fps.size:
            raise ValueError("batch contains duplicate keys")
        found, slot, _ = self._probe(fps)
        return found, slot

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
            lost_vars = np.asarray(var_ids)[res.unsatisfiable]
            modules = (
                res.fault_report.implicated_modules
                if res.fault_report is not None
                else self.failed_modules
            )
            raise QuorumLostError(
                f"kvstore {op} lost the majority quorum for "
                f"{lost_vars.size} table variable(s) under "
                f"{0 if self.failed_modules is None else self.failed_modules.size} "
                f"failed modules",
                variables=lost_vars,
                modules=modules,
            )

    def _read_vars(self, var_ids: np.ndarray) -> np.ndarray:
        """One batched majority read of (possibly duplicated) variables."""
        uniq, inverse = np.unique(var_ids, return_inverse=True)
        res = self.scheme.read(
            uniq, store=self.store, time=self._tick(), var_base=self.var_base,
            **self._fault_kwargs(),
        )
        self._check_quorum("read", uniq, res)
        self.mpc_iterations += res.total_iterations
        self.protocol_rounds += 1
        return res.values[inverse]

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

    def _probe(self, fps: np.ndarray):
        """Find each key's slot: returns (found_mask, slot, claim_slot).

        ``slot`` is the key's slot when found; ``claim_slot`` is where an
        insert should go (first tombstone on the chain, else the empty
        slot that terminated it).
        """
        B = fps.shape[0]
        pending = np.ones(B, dtype=bool)
        found = np.zeros(B, dtype=bool)
        slot = np.full(B, -1, dtype=np.int64)
        claim = np.full(B, -1, dtype=np.int64)
        offset = np.zeros(B, dtype=np.int64)
        home = self._home(fps)
        rounds = 0
        with _obs.span("kvstore.probe", batch=int(B)) as sp:
            for _ in range(self.capacity + 1):
                if not pending.any():
                    break
                idx = np.nonzero(pending)[0]
                rounds += 1
                cur = (home[idx] + offset[idx]) % self.capacity
                got = self._read_vars(2 * cur)
                is_empty = got == _EMPTY
                is_tomb = got == TOMBSTONE
                is_mine = got == fps[idx]
                # record the first recyclable slot on the chain
                rec = is_tomb & (claim[idx] < 0)
                claim[idx[rec]] = cur[rec]
                # chain ends: empty slot
                done_empty = is_empty
                claim_at_end = idx[done_empty & (claim[idx] < 0)]
                claim[claim_at_end] = cur[done_empty & (claim[idx] < 0)]
                found[idx[is_mine]] = True
                slot[idx[is_mine]] = cur[is_mine]
                pending[idx[is_mine | done_empty]] = False
                offset[idx] += 1
            else:
                raise RuntimeError("table full: probe chain exhausted capacity")
            sp.add(rounds=rounds)
        return found, slot, claim

    def _emit(
        self, op: str, keys: Sequence[int | str], values: np.ndarray
    ) -> None:
        """Hand the completed batch to :func:`repro.obs.emit` as one
        :class:`~repro.obs.record.KvRecord`, stamped with the store's
        clock after the batch (successive batches are totally ordered)."""
        if _obs.enabled():
            _obs.emit(_obs.KvRecord(
                op=op, keys=tuple(keys), values=np.array(values).ravel(),
                time=self._time,
            ))

    # -- public API ------------------------------------------------------------------

    def batch_put(
        self, keys: Sequence[int | str], values: np.ndarray
    ) -> dict[str, int]:
        """Insert/update a batch of distinct keys in parallel.

        Returns a stats dict (inserted, updated, protocol rounds used).
        """
        values = np.asarray(values, dtype=np.int64)
        if len(keys) != values.shape[0]:
            raise ValueError("keys and values must have equal length")
        if ((values < 0) | (values >= 1 << 32)).any():
            raise ValueError("values must be in [0, 2^32)")
        fps = self._fingerprint(keys)
        if np.unique(fps).size != fps.size:
            raise ValueError("batch contains duplicate keys")
        found, slot, claim = self._probe(fps)

        # resolve claim collisions: several new keys may want one slot --
        # lowest batch index wins, the rest re-probe next round
        to_insert = ~found
        while to_insert.any():
            idx = np.nonzero(to_insert)[0]
            order = np.argsort(claim[idx], kind="stable")
            sorted_claims = claim[idx][order]
            first = np.empty(sorted_claims.shape, dtype=bool)
            first[:1] = True
            np.not_equal(sorted_claims[1:], sorted_claims[:-1], out=first[1:])
            winners = idx[order[first]]
            slot[winners] = claim[winners]
            losers = np.setdiff1d(idx, winners)
            # winners write the value, then claim the slot with the
            # fingerprint: a recycled slot still holds its deleted
            # tenant's value, so a claim that committed before a lost
            # value write would serve that value as the new key's.
            # Losers re-probe against the updated table.
            self._write_vars(2 * slot[winners] + 1, values[winners])
            self._write_vars(2 * slot[winners], fps[winners])
            self.size += winners.size
            to_insert[winners] = False
            if losers.size:
                f2, s2, c2 = self._probe(fps[losers])
                # a loser may now find its... it cannot exist; re-claim
                claim[losers] = c2
                slot[losers] = np.where(f2, s2, slot[losers])
                newly_found = losers[f2]
                if newly_found.size:  # pragma: no cover -- distinct keys
                    to_insert[newly_found] = False
        updates = found
        if updates.any():
            self._write_vars(2 * slot[updates] + 1, values[updates])
        self._emit("put", keys, values)
        return {
            "inserted": int((~found).sum()),
            "updated": int(found.sum()),
            "protocol_rounds": self.protocol_rounds,
        }

    def batch_get(self, keys: Sequence[int | str]) -> np.ndarray:
        """Parallel lookup; returns values, -1 for missing keys."""
        fps = self._fingerprint(keys)
        if np.unique(fps).size != fps.size:
            raise ValueError("batch contains duplicate keys")
        found, slot, _ = self._probe(fps)
        out = np.full(len(keys), -1, dtype=np.int64)
        if found.any():
            vals = self._read_vars(2 * slot[found] + 1)
            out[found] = vals
        self._emit("get", keys, out)
        return out

    def batch_delete(self, keys: Sequence[int | str]) -> int:
        """Parallel delete; returns the number of keys removed."""
        fps = self._fingerprint(keys)
        if np.unique(fps).size != fps.size:
            raise ValueError("batch contains duplicate keys")
        found, slot, _ = self._probe(fps)
        if found.any():
            self._write_vars(
                2 * slot[found],
                np.full(int(found.sum()), TOMBSTONE, dtype=np.int64),
            )
            self.size -= int(found.sum())
        self._emit("delete", keys, found.astype(np.int64))
        return int(found.sum())

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
