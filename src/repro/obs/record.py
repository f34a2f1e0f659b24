"""The one record of a batch, handed to :func:`repro.obs.emit`.

The protocol builds one :class:`BatchRecord` per batch and the kv store
one :class:`KvRecord` per completed batch operation; every observability
sink derives its view from that record (see :mod:`repro.obs`).  Records
are column-shaped and immutable: the columns are the record's own
copies, so a record queued on the bus reads the same when it is drained
as when the batch closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.protocol import PhaseTrace
    from repro.faults.report import FaultReport
    from repro.mpc.stats import MPCStats

__all__ = ["BatchRecord", "KvRecord"]


@dataclass(frozen=True, eq=False)
class BatchRecord:
    """One protocol access batch.

    ``time`` is the batch's logical round.  Request ``i`` is processor
    ``i``, served in phase ``i % len(phases)``: ``var_ids[i]`` is its
    global variable, ``values[i]`` what it wrote or read (``values`` is
    None for ``op='count'``), ``lost[i]`` whether its quorum was lost
    (``lost`` is None on the healthy path).
    """

    #: bus event name of a protocol batch record
    EVENT: ClassVar[str] = "protocol.batch"
    #: trace event name of one request of the batch
    OP_EVENT: ClassVar[str] = "mem.op"

    op: str
    time: int
    copies: int
    majority: int
    modules: int
    var_ids: np.ndarray
    values: np.ndarray | None
    lost: np.ndarray | None
    phases: list[PhaseTrace]
    stats: MPCStats
    fault_report: FaultReport | None

    @property
    def requests(self) -> int:
        """Requests (distinct variables) in the batch."""
        return int(self.var_ids.size)

    @property
    def rounds(self) -> int:
        """Protocol iterations summed over the phases (Theorem 1)."""
        return sum(p.iterations for p in self.phases)

    @property
    def phi(self) -> int:
        """The worst phase's iteration count (Theorem 6's ``Phi``)."""
        return max((p.iterations for p in self.phases), default=0)

    @property
    def retries(self) -> int:
        """Requests a congested module turned away, re-issued later."""
        return int(self.stats.requests) - int(self.stats.served)

    @property
    def n_lost(self) -> int:
        """Requests whose quorum was lost."""
        return 0 if self.lost is None else int(np.count_nonzero(self.lost))

    @property
    def congestion_p95(self) -> float:
        """95th-percentile per-step module congestion."""
        return float(self.stats.congestion.quantile(0.95) or 0.0)

    @property
    def congestion_max(self) -> int:
        """Largest same-step module congestion."""
        return int(self.stats.max_congestion)

    def ledger_fields(self) -> dict[str, object]:
        """The ``ledger.batch`` payload: the bound quantities, in order."""
        return {
            "op": self.op, "requests": self.requests, "copies": self.copies,
            "majority": self.majority, "modules": self.modules,
            "rounds": self.rounds, "phi": self.phi, "retries": self.retries,
            "congestion_p50": float(
                self.stats.congestion.quantile(0.5) or 0.0
            ),
            "congestion_p95": self.congestion_p95,
            "congestion_max": self.congestion_max,
        }

    def op_events(self) -> Iterator[dict[str, object]]:
        """One ``mem.op`` payload per request (none for ``op='count'``)."""
        if self.values is None:
            return
        n_phases, lost = len(self.phases), self.lost
        if lost is None:
            lost = np.zeros(self.requests, dtype=bool)
        rows = zip(self.var_ids.tolist(), self.values.tolist(), lost.tolist())
        for i, (var, value, gone) in enumerate(rows):
            yield {
                "op": self.op, "var": var, "value": value,
                "round": self.time, "proc": i, "phase": i % n_phases,
                "lost": gone,
            }


@dataclass(frozen=True, eq=False)
class KvRecord:
    """One completed kvstore batch operation: per key, the value put,
    the value got (-1 when missing) or the delete outcome (1 removed, 0
    absent); ``time`` is the store's logical round after the batch."""

    #: bus event name of a kvstore batch record
    EVENT: ClassVar[str] = "kv.batch"
    #: trace event name of one key of the batch
    OP_EVENT: ClassVar[str] = "kv.op"

    op: str
    keys: tuple[int | str, ...]
    values: np.ndarray
    time: int

    def op_events(self) -> Iterator[dict[str, object]]:
        """One ``kv.op`` payload per key."""
        for key, value in zip(self.keys, self.values.tolist()):
            yield {
                "op": self.op, "key": str(key), "value": value,
                "round": self.time,
            }
