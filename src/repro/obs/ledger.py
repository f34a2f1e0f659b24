"""Bound-accounting ledger: theory-vs-measured cost counts.

The paper's claims are *counted* quantities -- ``O((N')^{1/3} log* N' +
log N)`` protocol rounds (Theorem 1), ``O(log N)`` field operations per
on-the-fly address (Theorem 8), at most one access per module per round
-- and wall-clock measurements cannot say whether a run stayed inside
those envelopes.  The :class:`Ledger` counts them: while installed (via
:func:`repro.obs.set_ledger`) it

* keeps every protocol batch's :class:`~repro.obs.record.BatchRecord`
  (handed over by :func:`repro.obs.emit`) and derives the bound
  quantities from them -- protocol rounds per batch, ``Phi`` (max phase
  iterations), retries, quorum sizes, addresses computed -- and the
  pooled per-round module-congestion *distribution* (the
  :class:`~repro.obs.metrics._QuantileSketch` of each batch's
  :class:`~repro.mpc.stats.MPCStats`), not just the scalar max;
* tallies GF(2^m) field operations by cost class through the
  :mod:`repro.gf.opcount` sink it installs.  The protocol does no field
  arithmetic, so this one tally is the addressing work (Theorem 8's
  quantity); ``tests/obs/test_ledger.py`` pins that invariant.

Every tally is an exact integer, identical across runs of the same
workload.  The ledger reads no clock: seconds, per layer and end to
end, come from the repo benchmark (``bench/run.py``).

Switchboard contract: nothing outside :mod:`repro.obs` calls the
ledger.  It sees a batch only as the record :func:`repro.obs.emit`
hands it, so no instrumentation site needs a guard of its own, and the
ledger never publishes.

The checking side lives in :mod:`repro.core.bounds`
(:class:`~repro.core.bounds.BoundRegistry`) and the driver/renderer in
:mod:`repro.obs.explain` (``python -m repro explain``).
"""

from __future__ import annotations

from repro.gf.gf2m import set_op_sink
from repro.gf.opcount import GFOpSink
from repro.obs.metrics import _QuantileSketch
from repro.obs.record import BatchRecord

__all__ = ["Ledger"]


class Ledger:
    """Deterministic accounting of bound quantities.

    All counts are exact integers (identical across runs of the same
    workload).  Install with :func:`repro.obs.set_ledger` -- that wires the GF op sink into
    :mod:`repro.gf.gf2m` and flips the global ``enabled()`` guard.
    """

    def __init__(self) -> None:
        self.gf = GFOpSink()  # every field op while installed
        self.batches: list[BatchRecord] = []
        self._prev_sink: GFOpSink | None = None

    # -- switchboard lifecycle (called by repro.obs.set_ledger) --------

    def on_install(self) -> None:
        """Route GF(2^m) op tallies into this ledger's sink."""
        self._prev_sink = set_op_sink(self.gf)

    def on_uninstall(self) -> None:
        """Restore the previously installed GF op sink (usually None)."""
        set_op_sink(self._prev_sink)
        self._prev_sink = None

    def record_batch(self, rec: BatchRecord) -> None:
        """Keep one protocol batch's record (called by :func:`repro.obs.emit`)."""
        self.batches.append(rec)

    # -- totals, derived from the kept records --------------------------

    @property
    def counters(self) -> dict[str, int]:
        """The run's integer tallies, summed over the kept batches."""
        b = self.batches
        return {
            "addr.computed": sum(rec.requests for rec in b),
            "protocol.batches": len(b),
            "protocol.quorum_copies": sum(rec.majority for rec in b),
            "protocol.retries": sum(rec.retries for rec in b),
            "protocol.rounds": sum(rec.rounds for rec in b),
        }

    @property
    def congestion(self) -> _QuantileSketch:
        """Per-step module congestion pooled over the kept batches."""
        pooled = _QuantileSketch()
        for rec in self.batches:
            pooled.merge(rec.stats.congestion)
        return pooled

    def congestion_summary(self) -> dict[str, float | None]:
        """p50/p95/max of the pooled per-step congestion distribution."""
        pooled = self.congestion
        return {
            "p50": pooled.quantile(0.5),
            "p95": pooled.quantile(0.95),
            "max": pooled.quantile(1.0),
        }

    def snapshot(self) -> dict[str, object]:
        """Plain-dict view: counters, field ops, congestion, batches."""
        return {
            "counters": self.counters,
            "gf_ops": self.gf.as_dict(),
            "congestion": self.congestion_summary(),
            "batches": [rec.ledger_fields() for rec in self.batches],
        }

    def reset(self) -> None:
        """Forget every count and batch (sink stays installed)."""
        self.gf.reset()
        self.batches.clear()
