"""Bound-accounting ledger: theory-vs-measured cost counts.

The paper's claims are *counted* quantities -- ``O((N')^{1/3} log* N' +
log N)`` protocol rounds (Theorem 1), ``O(log N)`` field operations per
on-the-fly address (Theorem 8), at most one access per module per round
-- and wall-clock measurements cannot say whether a run stayed inside
those envelopes.  The :class:`Ledger` counts them: while installed (via
:func:`repro.obs.set_ledger`) it

* tallies the bound quantities -- protocol rounds per batch, ``Phi``
  (max phase iterations), retries, quorum sizes, addresses computed
  (table-lookup vs on-the-fly), and GF(2^m) field operations by cost
  class (through the :mod:`repro.gf.opcount` sink it installs);
* pools the per-round module-congestion *distribution* (the
  :class:`~repro.obs.metrics._QuantileSketch` kept by
  :class:`~repro.mpc.stats.MPCStats`), not just the scalar max.

Every tally is an exact integer, identical across runs of the same
workload.  The ledger reads no clock: seconds, per layer and end to
end, come from the repo benchmark (``bench/run.py``).

Instrumentation sites follow the switchboard contract: they check
``obs.enabled()`` (or equivalently that :func:`repro.obs.ledger`
returned a non-``None`` object -- a ledger can only be reached while
installed, and installing one flips ``enabled()``), so the disabled
path stays within the <5% budget of ``tests/obs/test_overhead.py``.
Batches arrive as :class:`~repro.obs.record.BatchRecord` s from
:func:`repro.obs.emit`; the ledger never publishes.

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
        self.addressing_ops = GFOpSink()  # slice spent computing addresses
        self.congestion = _QuantileSketch()  # pooled per-step congestion
        self.counters: dict[str, int] = {}
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

    # -- emission sites -------------------------------------------------

    def count(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` to the named integer tally."""
        self.counters[name] = self.counters.get(name, 0) + int(delta)

    def note_addressing(self, count: int, gf_before: dict[str, int]) -> None:
        """Fold one address-computation block into the ledger.

        ``gf_before`` is ``self.gf.as_dict()`` snapshotted before the
        block; the delta is the field work attributable to addressing
        (Theorem 8's quantity).  The table-hit vs on-the-fly split is
        counted inside the addressing layers themselves
        (``addr.on_the_fly`` / ``addr.table``).
        """
        self.count("addr.computed", count)
        cur = self.gf.as_dict()
        self.addressing_ops.add += cur["add"] - gf_before["add"]
        self.addressing_ops.mul += cur["mul"] - gf_before["mul"]
        self.addressing_ops.dlog += cur["dlog"] - gf_before["dlog"]
        self.addressing_ops.exp += cur["exp"] - gf_before["exp"]

    def record_batch(self, rec: BatchRecord) -> None:
        """Close out one protocol batch: tally its bound quantities and
        pool its congestion sketch into the run-wide distribution."""
        self.count("protocol.batches")
        self.count("protocol.rounds", rec.rounds)
        self.count("protocol.retries", rec.retries)
        self.count("protocol.quorum_copies", rec.majority)
        self.congestion.merge(rec.stats.congestion)
        self.batches.append(rec)

    # -- totals ---------------------------------------------------------

    def congestion_summary(self) -> dict[str, float | None]:
        """p50/p95/max of the pooled per-step congestion distribution."""
        return {
            "p50": self.congestion.quantile(0.5),
            "p95": self.congestion.quantile(0.95),
            "max": self.congestion.quantile(1.0),
        }

    def snapshot(self) -> dict[str, object]:
        """Plain-dict view: counters, field ops, congestion, batches."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gf_ops": self.gf.as_dict(),
            "addressing_ops": self.addressing_ops.as_dict(),
            "congestion": self.congestion_summary(),
            "batches": [rec.ledger_fields() for rec in self.batches],
        }

    def reset(self) -> None:
        """Forget every count and batch (sink stays installed)."""
        self.gf.reset()
        self.addressing_ops.reset()
        self.congestion.reset()
        self.counters.clear()
        self.batches.clear()
