"""Sharded repository over parallel KV stores.

The paper sizes ONE memory organization for N' variables; a service
scales *out* by running S independent organizations side by side and
routing each key to the shard that owns it.  Every shard is a full
:class:`~repro.kvstore.store.ParallelKVStore` over its own
:class:`~repro.schemes.pp_adapter.PPAdapter` expander scheme, with its
own module set, its own MPC arbitration, and its own fault state --
faults in one shard cannot touch another's quorums.

Routing is a seeded stable hash of the key (NOT the store's table
fingerprint -- the two hashes are independent, so a probe-chain
pathology in a shard's table is uncorrelated with routing).  All shards
share one logical round clock (:meth:`ParallelKVStore.sync_clock`) so
the merged ``kv.op`` event stream stays totally ordered for the
streaming conformance checker.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.faults.report import QuorumLostError
from repro.kvstore.store import ParallelKVStore
from repro.schemes.pp_adapter import PPAdapter

__all__ = ["ShardRound", "ShardedKV"]

#: splitmix64-style odd multiplier for the int-key routing hash
_ROUTE_MULT = np.uint64(0x9E3779B97F4A7C15)


@dataclass
class ShardRound:
    """What one shard round completed: each op's result, or None when
    the op did not complete (or had no keys)."""

    #: ``batch_get`` values
    got: np.ndarray | None = None
    #: ``batch_put`` stats
    put: dict[str, int] | None = None
    #: ``batch_delete`` count of removed keys
    removed: int | None = None
    #: the quorum loss that stopped the round, if any
    lost: QuorumLostError | None = None


class ShardedKV:
    """``n_shards`` independent parallel KV stores behind one key space.

    Parameters
    ----------
    n_shards:
        Worker shard count (>= 1).
    q, n:
        Pietracaprina--Preparata expander parameters of each shard's
        ``PPAdapter(q, n)`` scheme (capacity ``M/2`` slots per shard).
    seed:
        Salts both the routing hash and each shard's table hash
        (shard ``i`` uses ``seed + i``).
    """

    def __init__(
        self,
        n_shards: int = 2,
        q: int = 2,
        n: int = 5,
        seed: int = 0,
    ):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        self.seed = seed
        schemes = [PPAdapter(q, n) for _ in range(n_shards)]
        # disjoint emitted-variable namespaces: the merged mem.op stream
        # must never alias two shards' variables in the checker
        self.shards = [
            ParallelKVStore(
                schemes[i], seed=seed + i, var_base=i * schemes[i].M
            )
            for i in range(n_shards)
        ]
        self._route_salt = np.uint64((seed * 0x9E3779B1 + 0x85EBCA77) & (2**64 - 1))
        self._clock = max(s.clock for s in self.shards)

    # -- routing -----------------------------------------------------------

    def route_ints(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized shard id of each integer key."""
        h = (np.asarray(keys, dtype=np.int64).astype(np.uint64) + np.uint64(1)) * _ROUTE_MULT
        h ^= self._route_salt
        h ^= h >> np.uint64(29)
        h *= _ROUTE_MULT
        h ^= h >> np.uint64(32)
        return (h % np.uint64(self.n_shards)).astype(np.int64)

    def route_one(self, key: int | str) -> int:
        """Shard id of one int or str key."""
        if isinstance(key, (int, np.integer)):
            return int(self.route_ints(np.asarray([int(key)]))[0])
        h = hashlib.blake2b(
            str(key).encode(), digest_size=8,
            key=int(self._route_salt).to_bytes(8, "little"),
        ).digest()
        return int.from_bytes(h, "little") % self.n_shards

    # -- clocked batch operations -----------------------------------------

    def enter_shard(self, shard: int) -> ParallelKVStore:
        """The shard's store, clock-synced to the shared round order.

        Callers that drive a shard store directly (fault harnesses)
        must pair this with :meth:`leave_shard` so the shared clock
        absorbs the rounds they spent."""
        s = self.shards[shard]
        s.sync_clock(self._clock)
        return s

    def leave_shard(self, s: ParallelKVStore) -> None:
        """Fold a directly-driven shard's clock back into the order."""
        self._clock = max(self._clock, s.clock)

    def shard_round(
        self,
        shard: int,
        gets: Sequence[int | str] = (),
        puts: Sequence[int | str] = (),
        values: np.ndarray | Sequence[int] = (),
        deletes: Sequence[int | str] = (),
    ) -> ShardRound:
        """One service round on one shard under the shared round clock:
        ``batch_get``, then ``batch_put``, then ``batch_delete`` (each
        only when it has keys) on one
        :class:`~repro.kvstore.store.RoundPlan`, so the three share one
        probe.

        A :class:`~repro.faults.report.QuorumLostError` stops the round:
        it lands in :attr:`ShardRound.lost`, the op that raised and
        every later one stay None, and the ops before it keep their
        results."""
        s = self.enter_shard(shard)
        out = ShardRound()
        try:
            plan = s.plan(gets, puts, deletes)
            if len(gets):
                out.got = s.batch_get(gets, plan=plan)
            if len(puts):
                out.put = s.batch_put(puts, values, plan=plan)
            if len(deletes):
                out.removed = s.batch_delete(deletes, plan=plan)
        except QuorumLostError as exc:
            out.lost = exc
        finally:
            self.leave_shard(s)
        return out

    def shard_put(
        self,
        shard: int,
        keys: Sequence[int | str],
        values: np.ndarray,
    ) -> dict[str, int]:
        """Batched put on one shard: a puts-only :meth:`shard_round`.

        Raises :class:`~repro.faults.report.QuorumLostError` if the
        shard cannot assemble a quorum for a touched variable."""
        r = self.shard_round(shard, puts=keys, values=values)
        if r.lost is not None:
            raise r.lost
        return r.put or {}

    # -- fault surface ------------------------------------------------------

    def set_failed_modules(self, shard: int, failed: np.ndarray | None) -> None:
        """Install (or clear) one shard's failed-module set."""
        self.shards[shard].set_failed_modules(failed)

    # -- accounting ---------------------------------------------------------

    @property
    def clock(self) -> int:
        """The shared logical round clock."""
        return self._clock

    @property
    def capacity(self) -> int:
        """Total table slots across shards."""
        return sum(s.capacity for s in self.shards)

    @property
    def size(self) -> int:
        """Total live keys across shards."""
        return sum(s.size for s in self.shards)

    def cost_summary(self) -> dict:
        """Aggregated + per-shard simulated-machine cost."""
        per = [s.cost_summary() for s in self.shards]
        return {
            "n_shards": self.n_shards,
            "size": self.size,
            "capacity": self.capacity,
            "protocol_rounds": sum(p["protocol_rounds"] for p in per),
            "mpc_iterations": sum(p["mpc_iterations"] for p in per),
            "shards": per,
        }

    def __repr__(self) -> str:
        return (
            f"ShardedKV(n_shards={self.n_shards}, size={self.size}, "
            f"capacity={self.capacity})"
        )
