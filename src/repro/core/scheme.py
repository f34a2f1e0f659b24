""":class:`PPScheme` -- the user-facing facade of the paper's system.

Bundles the memory graph (Section 2), the addressing layer (Section 4)
and the access protocol (Section 3) behind a small API:

>>> scheme = PPScheme(q=2, n=5)           # N = 1023, M = 5456, 3 copies
>>> idx = scheme.random_request_set(512, seed=0)
>>> store = scheme.make_store()
>>> w = scheme.write(idx, values=idx, store=store, time=1)
>>> r = scheme.read(idx, store=store, time=2)
>>> bool((r.values == idx).all())
True

For ``q = 2`` and odd ``n`` the indexing is the paper's O(log N)
on-the-fly computation; for other parameters (the paper defers them to
its extended version) a precomputed enumeration table stands in, which
is only feasible at validation scale and is flagged accordingly.
"""

from __future__ import annotations

import numpy as np

import repro.obs as _obs
from repro.core.addressing import AddressLayer, Lemma4Slots
from repro.core.graph import MemoryGraph
from repro.core.protocol import AccessResult, run_access_protocol
from repro.mpc.machine import all_distinct
from repro.mpc.memory import SharedCopyStore
from repro.pgl.matrix import Mat

__all__ = ["EnumeratedAddressing", "PPScheme"]


class EnumeratedAddressing(Lemma4Slots):
    """Table-based fallback indexing for parameters outside Section 4.

    Enumerates every variable coset once (O(q^{3n}) preprocessing,
    validation scale only) and then answers unrank/rank by array/dict
    lookup.  Interface-compatible with
    :class:`~repro.core.addressing.AddressLayer` for the methods the
    scheme uses, and shares its Lemma-4 slot computation.
    """

    def __init__(self, graph: MemoryGraph):
        if graph.M > 2_000_000:
            raise ValueError(
                f"enumerated addressing infeasible for M = {graph.M}; "
                "use q = 2 with odd n for the O(log N) layer"
            )
        self.graph = graph
        self.M = graph.M
        mats = graph.all_variable_matrices()
        self._mats = mats
        self._index = {graph.variables.key(m): i for i, m in enumerate(mats)}
        self._arr = np.array(mats, dtype=np.int64)

    def unrank(self, index: int) -> Mat:
        """Canonical matrix of variable ``index`` (table lookup)."""
        return self._mats[index]

    def rank(self, m: Mat) -> int:
        """Index of the coset of ``m`` (canonicalize + dict lookup)."""
        return self._index[self.graph.variables.key(m)]

    def vunrank(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized unrank via the enumeration table."""
        rows = self._arr[np.asarray(indices, dtype=np.int64)]
        return rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]


class PPScheme:
    """The Pietracaprina-Preparata memory organization, end to end.

    Parameters
    ----------
    q:
        Even prime power (power of 2); copies per variable = q + 1.
    n:
        Extension degree >= 3.  The O(log N) addressing needs q = 2 and
        n odd; other parameters fall back to enumerated addressing.
    arbitration, seed:
        Default module arbitration for the protocol runs.
    """

    def __init__(self, q: int = 2, n: int = 5, arbitration: str = "lowest", seed: int = 0):
        with _obs.span("scheme.build", q=q, n=n) as sp:
            self.graph = MemoryGraph(q, n)
            self.q = q
            self.n = n
            self.N = self.graph.N
            self.M = self.graph.M
            self.copies_per_variable = self.graph.copies_per_variable
            self.majority = self.graph.majority
            self.module_capacity = self.graph.module_degree
            self.arbitration = arbitration
            self.seed = seed
            if q == 2 and n % 2 == 1:
                self.addressing: AddressLayer | EnumeratedAddressing = AddressLayer(
                    self.graph
                )
                self.addressing_kind = "explicit-O(logN)"
            else:
                self.addressing = EnumeratedAddressing(self.graph)
                self.addressing_kind = "enumerated-fallback"
            sp.add(N=self.N, M=self.M, addressing=self.addressing_kind)

    # -- placement -------------------------------------------------------

    def locate(self, index: int) -> list[tuple[int, int]]:
        """Physical (module, slot) of every copy of one variable."""
        return self.addressing.locate(index)

    def module_ids_for(self, indices: np.ndarray) -> np.ndarray:
        """``(V, q+1)`` module ids of the copies of each requested
        variable (vectorized unrank + Lemma 1 kernel)."""
        mats = self.addressing.vunrank(np.asarray(indices, dtype=np.int64))
        return self.graph.vgamma_variables(mats)

    def placement_for(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(modules, slots)`` -- both ``(V, q+1)`` -- for the requested
        variables, fully vectorized (Lemma 1 + Lemma 4)."""
        return self.addressing.vlocate(np.asarray(indices, dtype=np.int64))

    # -- storage -----------------------------------------------------------

    def make_store(self) -> SharedCopyStore:
        """A fresh timestamped store shaped for this scheme
        (N modules x q^{n-1} slots)."""
        return SharedCopyStore(self.N, self.module_capacity)

    # -- access operations ---------------------------------------------------

    def access(
        self,
        indices: np.ndarray,
        op: str = "count",
        *,
        store: SharedCopyStore | None = None,
        values: np.ndarray | None = None,
        time: int = 0,
        arbitration: str | None = None,
        seed: int | None = None,
        collect_history: bool = True,
        failed_modules: np.ndarray | None = None,
        allow_partial: bool = False,
        grey_modules: np.ndarray | None = None,
        retry_limit: int | None = None,
    ) -> AccessResult:
        """Run the Section-3 protocol for a batch of distinct variables.

        ``op='count'`` needs no store; ``'read'``/``'write'`` thread the
        physical slots through to the timestamped cells.
        ``failed_modules``/``grey_modules``/``retry_limit`` inject
        module faults and bound the degraded-mode retries (see
        :func:`~repro.core.protocol.run_access_protocol`).
        """
        indices = np.asarray(indices, dtype=np.int64)
        if not all_distinct(indices):
            raise ValueError("requests must address distinct variables")
        if op == "count":
            modules = self.module_ids_for(indices)
            slots = None
        else:
            modules, slots = self.placement_for(indices)
        return run_access_protocol(
            modules,
            self.N,
            self.majority,
            op=op,
            slots=slots,
            store=store,
            values=values,
            time=time,
            arbitration=arbitration or self.arbitration,
            seed=self.seed if seed is None else seed,
            collect_history=collect_history,
            failed_modules=failed_modules,
            allow_partial=allow_partial,
            grey_modules=grey_modules,
            retry_limit=retry_limit,
            var_ids=indices,
        )

    def write(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        store: SharedCopyStore,
        time: int,
        **kw: object,
    ) -> AccessResult:
        """Majority write of ``values`` into the requested variables."""
        return self.access(indices, op="write", store=store, values=values, time=time, **kw)

    def read(
        self, indices: np.ndarray, store: SharedCopyStore, time: int, **kw: object
    ) -> AccessResult:
        """Majority read; ``result.values[i]`` is the freshest written
        value of ``indices[i]`` (or -1 if never written)."""
        return self.access(indices, op="read", store=store, time=time, **kw)

    # -- workload helpers --------------------------------------------------------

    def random_request_set(self, count: int, seed: int = 0) -> np.ndarray:
        """``count`` distinct variable indices, uniform, seeded.

        Scales to the billion-variable instances (n = 11): when M is
        huge, rejection sampling replaces the permutation/choice path
        (whose memory is Theta(M)).
        """
        if count > self.M:
            raise ValueError(f"cannot request {count} distinct of {self.M} variables")
        rng = np.random.default_rng(seed)
        if self.M > 50_000_000:
            chunks: list[np.ndarray] = []
            have = 0
            while have < count:
                raw = rng.integers(0, self.M, int(1.2 * (count - have)) + 16)
                chunks.append(raw)
                have = np.unique(np.concatenate(chunks)).size
            out = np.unique(np.concatenate(chunks))[:count]
            return rng.permutation(out).astype(np.int64)
        if count * 4 >= self.M:
            return rng.permutation(self.M)[:count].astype(np.int64)
        return rng.choice(self.M, size=count, replace=False).astype(np.int64)

    def describe(self) -> dict:
        """Structural summary including the addressing backend."""
        d = self.graph.describe()
        d["addressing"] = self.addressing_kind
        return d

    def __repr__(self) -> str:
        return (
            f"PPScheme(q={self.q}, n={self.n}, N={self.N}, M={self.M}, "
            f"addressing={self.addressing_kind})"
        )
