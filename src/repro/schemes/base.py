"""Common interface for memory-organization schemes.

A scheme answers one structural question -- *where are the copies of
variable v?* -- and declares how many copies an operation must reach
(read/write quorums).  The shared MPC protocol engine does the rest, so
every scheme is measured under identical machine semantics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.protocol import AccessResult, run_access_protocol
from repro.mpc.machine import all_distinct

__all__ = ["MemoryScheme", "KeyedCopyStore"]


class KeyedCopyStore:
    """Sparse timestamped copy storage keyed by (module, slot).

    Baseline schemes have no compact physical slot structure (that is
    one of the paper's criticisms), so their cells are materialized
    lazily in a dict.  Array-API compatible with
    :class:`~repro.mpc.memory.SharedCopyStore` (semantics-test scale).
    """

    def __init__(self, n_modules: int):
        self.n_modules = n_modules
        self._cells: dict[tuple[int, int], tuple[int, int]] = {}

    def write(
        self,
        modules: np.ndarray,
        slots: np.ndarray,
        values: np.ndarray,
        time: int | np.ndarray,
    ) -> None:
        """Write (value, time) to each (module, slot) cell."""
        times = np.broadcast_to(np.asarray(time), np.shape(modules))
        for m, s, v, t in zip(
            np.ravel(modules), np.ravel(slots), np.ravel(values), np.ravel(times)
        ):
            self._cells[(int(m), int(s))] = (int(v), int(t))

    def read(
        self, modules: np.ndarray, slots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Read (values, stamps); unwritten cells give (0, -1)."""
        vals = np.empty(np.shape(modules), dtype=np.int64).ravel()
        stamps = np.empty_like(vals)
        for i, (m, s) in enumerate(zip(np.ravel(modules), np.ravel(slots))):
            v, t = self._cells.get((int(m), int(s)), (0, -1))
            vals[i] = v
            stamps[i] = t
        return vals.reshape(np.shape(modules)), stamps.reshape(np.shape(modules))


class MemoryScheme(ABC):
    """Abstract memory-organization scheme over N modules and M variables.

    Subclasses define :meth:`placement` plus the quorum attributes (and,
    for dense stores, :meth:`placement_and_slots`); the base class
    supplies protocol-driven ``access``/``read``/``write`` with exactly
    the machine model used for the paper's scheme.
    """

    #: number of memory modules
    N: int
    #: number of shared variables
    M: int
    #: copies per variable (the redundancy r)
    copies_per_variable: int
    #: copies a read must reach
    read_quorum: int
    #: copies a write must reach
    write_quorum: int
    #: short display name for tables
    name: str = "abstract"

    @abstractmethod
    def placement(self, indices: np.ndarray) -> np.ndarray:
        """``(V, r)`` module ids of the copies of each variable; entries
        in a row are distinct."""

    def placement_and_slots(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(modules, slots)``, both ``(V, r)``: where each copy lives.
        Default: :meth:`placement`, with the variable index itself as
        the slot (valid for sparse keyed stores); dense schemes override
        to compute both from one address computation."""
        indices = np.asarray(indices, dtype=np.int64)
        modules = self.placement(indices)
        return modules, np.broadcast_to(indices[:, None], modules.shape)

    def make_store(self) -> object:
        """A store suited to this scheme (sparse keyed by default)."""
        return KeyedCopyStore(self.N)

    def quorum_for(self, op: str) -> int:
        """Copies that must be reached for the given operation."""
        if op == "read":
            return self.read_quorum
        if op == "write":
            return self.write_quorum
        return self.read_quorum  # 'count' defaults to read cost

    def access(
        self,
        indices: np.ndarray,
        op: str = "count",
        *,
        store: object | None = None,
        values: np.ndarray | None = None,
        time: int = 0,
        arbitration: str = "lowest",
        seed: int = 0,
        collect_history: bool = False,
        count_as: str | None = None,
        failed_modules: np.ndarray | None = None,
        allow_partial: bool = False,
        grey_modules: np.ndarray | None = None,
        retry_limit: int | None = None,
        var_base: int = 0,
    ) -> AccessResult:
        """Run the protocol engine for a batch of distinct variables.

        ``op='count'`` measures cost without touching cells; pass
        ``count_as='write'`` to count with the write quorum.  The fault
        kwargs (``failed_modules``, ``grey_modules``, ``retry_limit``,
        ``allow_partial``) inject module faults identically for every
        scheme -- see :func:`~repro.core.protocol.run_access_protocol`.
        ``var_base`` offsets the *emitted* variable ids (``mem.op``
        events) without touching placement -- systems that run several
        scheme instances side by side (the sharded service) give each a
        disjoint id namespace so the conformance checker never aliases
        two shards' variables.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if not all_distinct(indices):
            raise ValueError("requests must address distinct variables")
        if op in ("read", "write"):
            modules, slots = self.placement_and_slots(indices)
        else:
            modules, slots = self.placement(indices), None
        quorum = self.quorum_for(count_as or op)
        return run_access_protocol(
            modules,
            self.N,
            quorum,
            op=op,
            slots=slots,
            store=store,
            values=values,
            time=time,
            arbitration=arbitration,
            seed=seed,
            collect_history=collect_history,
            failed_modules=failed_modules,
            allow_partial=allow_partial,
            grey_modules=grey_modules,
            retry_limit=retry_limit,
            var_ids=indices + var_base if var_base else indices,
        )

    def read(
        self, indices: np.ndarray, store: object, time: int, **kw: object
    ) -> AccessResult:
        """Quorum read; ``.values`` holds the freshest values."""
        return self.access(indices, op="read", store=store, time=time, **kw)

    def write(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        store: object,
        time: int,
        **kw: object,
    ) -> AccessResult:
        """Quorum write of ``values``."""
        return self.access(indices, op="write", store=store, values=values, time=time, **kw)

    def random_request_set(self, count: int, seed: int = 0) -> np.ndarray:
        """``count`` distinct variable indices, uniform, seeded."""
        if count > self.M:
            raise ValueError(f"cannot request {count} distinct of {self.M}")
        rng = np.random.default_rng(seed)
        if count * 4 >= self.M:
            return rng.permutation(self.M)[:count].astype(np.int64)
        return rng.choice(self.M, size=count, replace=False).astype(np.int64)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(N={self.N}, M={self.M}, "
            f"r={self.copies_per_variable})"
        )
