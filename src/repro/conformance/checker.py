"""Trace-based PRAM-consistency checking of recorded memory operations.

The paper's Theorem on majority-rule semantics promises that replicated
memory is indistinguishable from a single serial memory.  For the
batched MPC model that contract specializes to *sequential consistency
per variable* over the recorded trace (the per-process discipline of
Wei et al.'s PRAM-trace verification, collapsed by the model's total
round order):

* operations are totally ordered by ``(round, writes-before-reads,
  seq)`` -- every batch carries one strictly-increasing logical
  timestamp, so the protocol's arbitration order is recoverable from
  the trace alone;
* a read of variable ``v`` must return the value of the *winning* write
  to ``v`` with the largest round not after the read's round, or ``-1``
  when ``v`` was never written;
* two writes to ``v`` in the same round are arbitrated exactly like the
  protocol arbitrates copies: freshest timestamp first, then largest
  value -- the ``(stamp << 32) | value`` packing order of
  :func:`repro.core.protocol.run_access_protocol`, which is what the
  module-level policies of :mod:`repro.mpc.arbitration` funnel into;
* an operation flagged ``lost`` failed its quorum and was *reported*:
  its value is invalid by contract.  A lost **write** leaves the
  variable indeterminate (some copies may carry the new stamp), so
  until the next successful write a read may legitimately return either
  the old or the attempted value -- the checker tracks that taint set
  instead of guessing;
* every other divergence is a violation, classified as ``stale-read``
  (an older write's value -- the silent failure mode a stale majority
  produces), ``dropped-read`` (written state read back as empty) or
  ``phantom-read`` (a value never written to that variable).

Violations identify the offending operation by (processor, round,
variable) and the report is machine-readable
(:meth:`ViolationReport.to_dict`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Callable, Sequence

from repro.conformance.recorder import (
    KvOp,
    MemOp,
    kv_ops_from_events,
    mem_ops_from_events,
)

__all__ = [
    "Violation",
    "ViolationReport",
    "ConsistencyChecker",
    "MemOpCore",
    "KvOpCore",
]


@dataclass(frozen=True)
class Violation:
    """One consistency violation, anchored to the offending operation."""

    kind: str
    var: str
    round: int
    proc: int
    expected: int
    observed: int

    def describe(self) -> str:
        """Human-readable one-liner."""
        return (
            f"{self.kind}: processor {self.proc}, round {self.round}, "
            f"variable {self.var}: expected {self.expected}, "
            f"read {self.observed}"
        )


@dataclass
class ViolationReport:
    """Machine-readable outcome of one checker pass."""

    violations: list[Violation] = field(default_factory=list)
    reads_checked: int = 0
    writes_seen: int = 0
    lost_exempt: int = 0
    tainted_accepted: int = 0
    kv_checked: int = 0
    truncated: int = 0  # violations beyond the cap, not listed

    @property
    def ok(self) -> bool:
        """True iff the trace is consistent."""
        return not self.violations and not self.truncated

    @property
    def n_violations(self) -> int:
        """Total violations observed (listed + truncated)."""
        return len(self.violations) + self.truncated

    def merge(self, other: "ViolationReport") -> "ViolationReport":
        """Fold another report into this one (returns self)."""
        self.violations.extend(other.violations)
        self.reads_checked += other.reads_checked
        self.writes_seen += other.writes_seen
        self.lost_exempt += other.lost_exempt
        self.tainted_accepted += other.tainted_accepted
        self.kv_checked += other.kv_checked
        self.truncated += other.truncated
        return self

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "schema": 1,
            "ok": self.ok,
            "reads_checked": self.reads_checked,
            "writes_seen": self.writes_seen,
            "lost_exempt": self.lost_exempt,
            "tainted_accepted": self.tainted_accepted,
            "kv_checked": self.kv_checked,
            "truncated": self.truncated,
            "violations": [asdict(v) for v in self.violations],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ViolationReport":
        """Rehydrate a report from its :meth:`to_dict` form."""
        return cls(
            violations=[Violation(**v) for v in d.get("violations", [])],
            reads_checked=int(d.get("reads_checked", 0)),
            writes_seen=int(d.get("writes_seen", 0)),
            lost_exempt=int(d.get("lost_exempt", 0)),
            tainted_accepted=int(d.get("tainted_accepted", 0)),
            kv_checked=int(d.get("kv_checked", 0)),
            truncated=int(d.get("truncated", 0)),
        )

    def render(self) -> str:
        """The report as markdown (verdict line + violations table)."""
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"**Consistency: {verdict}** -- {self.n_violations} "
            f"violation(s) over {self.reads_checked} checked read(s), "
            f"{self.writes_seen} write(s), {self.kv_checked} kv op(s); "
            f"{self.lost_exempt} lost op(s) exempt.",
        ]
        if self.violations:
            lines += [
                "",
                "| kind | processor | round | variable | expected | observed |",
                "|------|-----------|-------|----------|----------|----------|",
            ]
            for v in self.violations:
                lines.append(
                    f"| {v.kind} | {v.proc} | {v.round} | {v.var} | "
                    f"{v.expected} | {v.observed} |"
                )
            if self.truncated:
                lines.append(f"| ... {self.truncated} more ... | | | | | |")
        return "\n".join(lines)


#: reads sort after writes within a round: a batch's timestamp is the
#: order its writes become visible in
_OP_RANK = {"write": 0, "read": 1}


class _Core:
    """Shared by the two cores: the report and the violation cap."""

    def __init__(
        self,
        max_violations: int,
        on_violation: "Callable[[Violation], None] | None",
    ):
        if max_violations < 1:
            raise ValueError("max_violations must be >= 1")
        self.max_violations = max_violations
        self.on_violation = on_violation
        self.report = ViolationReport()

    def _record(self, v: Violation) -> None:
        rep = self.report
        if len(rep.violations) < self.max_violations:
            rep.violations.append(v)
        else:
            rep.truncated += 1
        if self.on_violation is not None:
            self.on_violation(v)


class MemOpCore(_Core):
    """Incremental serial-memory-per-variable verifier.

    Feed :class:`~repro.conformance.recorder.MemOp` records (or whole
    batches with :meth:`feed_columns`) **in arbitration order** --
    sorted by ``(round, writes-before-reads, seq)`` -- and each request
    is classified immediately.  The batch :class:`ConsistencyChecker`
    sorts a whole trace and feeds it through one core; the streaming
    checker (:mod:`repro.conformance.streaming`) feeds closed
    round-windows and calls :meth:`retire` so retained state stays
    bounded.

    State per variable: the current winning write (kept for the
    variable's lifetime), the set of past written values with their last
    write round (prunable -- it only classifies stale vs phantom), and
    the post-lost-write taint set (cleared by the next successful
    write).  Running counts of the past-value and taint entries make
    :attr:`state_size` O(1), and past values are indexed by the round
    they were last written, so :meth:`retire` visits only what expires.
    """

    def __init__(
        self,
        max_violations: int = 100,
        on_violation: "Callable[[Violation], None] | None" = None,
    ):
        super().__init__(max_violations, on_violation)
        self._cur: dict[int, tuple[int, int]] = {}  # var -> (round, value)
        self._past: dict[int, dict[int, int]] = {}  # var -> value -> round
        self._taint: dict[int, set[int]] = {}  # var -> acceptable values
        #: round -> (var, value) pairs whose past entry was set to that
        #: round; a pair is stale once ``_past[var][value]`` moved on
        self._expiry: dict[int, list[tuple[int, int]]] = {}
        self._horizon: float = float("-inf")  # largest retire horizon
        self._n_past = 0
        self._n_taint = 0

    def feed(self, o: MemOp) -> Violation | None:
        """Classify one operation; returns the violation, if any."""
        if o.op == "write":
            self._write(o.var, o.value, o.round, o.lost)
            return None
        return self._read(o.var, o.value, o.round, o.proc, o.lost)

    def feed_columns(
        self,
        op: str,
        round_: int,
        var_ids: Sequence[int],
        values: Sequence[int],
        lost: Sequence[bool] | None = None,
    ) -> None:
        """Classify one batch's requests in order; request ``i`` is
        processor ``i`` (the :class:`~repro.obs.record.BatchRecord`
        layout), and ``lost=None`` means no quorum was lost."""
        gone = repeat(False) if lost is None else lost
        if op == "write":
            write = self._write
            for var, value, g in zip(var_ids, values, gone):
                write(var, value, round_, g)
        else:
            read = self._read
            for proc, (var, value, g) in enumerate(zip(var_ids, values, gone)):
                read(var, value, round_, proc, g)

    def _write(self, var: int, value: int, round_: int, lost: bool) -> None:
        self.report.writes_seen += 1
        past = self._past.get(var)
        if past is None:
            past = self._past[var] = {}
        if value not in past:
            self._n_past += 1
        past[value] = round_
        self._expiring(round_).append((var, value))
        have = self._cur.get(var)
        if lost:
            # indeterminate: old winner and attempted value both
            # acceptable until the next successful write
            taint = self._taint.get(var)
            if taint is None:
                taint = self._taint[var] = set()
            n = len(taint)
            taint.add(have[1] if have else -1)
            taint.add(value)
            self._n_taint += len(taint) - n
            self.report.lost_exempt += 1
            return
        taint = self._taint.pop(var, None)
        if taint is not None:
            self._n_taint -= len(taint)
        if (
            have is None
            or round_ > have[0]
            # same-round arbitration: larger value wins, the
            # protocol's (stamp << 32) | value packing order
            or (round_ == have[0] and value > have[1])
        ):
            self._cur[var] = (round_, value)
            if have is not None and have[1] != value:
                # the old winner's entry, if a retire pinned it below
                # the horizon, becomes droppable at the next retire
                r = past.get(have[1])
                if r is not None and r < self._horizon:
                    self._expiring(r).append((var, have[1]))

    def _read(
        self, var: int, value: int, round_: int, proc: int, lost: bool
    ) -> Violation | None:
        rep = self.report
        if lost:
            rep.lost_exempt += 1
            return None
        rep.reads_checked += 1
        have = self._cur.get(var)
        expected = have[1] if have is not None else -1
        if value == expected:
            return None
        accept = self._taint.get(var)
        if accept is not None and value in accept:
            rep.tainted_accepted += 1
            return None
        if expected == -1:
            kind = "phantom-read"
        elif value == -1:
            kind = "dropped-read"
        elif value in self._past.get(var, ()):
            kind = "stale-read"
        else:
            kind = "phantom-read"
        v = Violation(
            kind=kind, var=str(var), round=round_, proc=proc,
            expected=expected, observed=value,
        )
        self._record(v)
        return v

    def _expiring(self, round_: int) -> list[tuple[int, int]]:
        bucket = self._expiry.get(round_)
        if bucket is None:
            bucket = self._expiry[round_] = []
        return bucket

    def retire(self, horizon: int) -> None:
        """Drop past-value entries last written before round ``horizon``.

        The current winner and the taint set survive (they define
        correctness, not classification), so retiring only narrows the
        stale-vs-phantom distinction for reads that reach back further
        than the caller's window -- never the violation/no-violation
        verdict itself.  An expired winner's entry is kept at the
        winner's round until a different value wins.
        """
        self._horizon = max(self._horizon, horizon)
        for r in [r for r in self._expiry if r < horizon]:
            for var, value in self._expiry.pop(r):
                past = self._past.get(var)
                if past is None or past.get(value) != r:
                    continue  # rewritten since, or already dropped
                winner = self._cur.get(var)
                if winner is not None and winner[1] == value:
                    past[value] = winner[0]
                    continue
                del past[value]
                self._n_past -= 1
                if not past:
                    del self._past[var]

    @property
    def state_size(self) -> int:
        """Retained entries across all per-variable structures."""
        return len(self._cur) + self._n_past + self._n_taint


class KvOpCore(_Core):
    """Incremental dict-semantics verifier for ``kv.op`` streams.

    Feed :class:`~repro.conformance.recorder.KvOp` records (or whole
    batches with :meth:`feed_columns`) sorted by ``(round, seq)``.
    State is the live key->value model -- already O(live keys), so
    :meth:`retire` exists only for interface symmetry.
    """

    def __init__(
        self,
        max_violations: int = 100,
        on_violation: "Callable[[Violation], None] | None" = None,
    ):
        super().__init__(max_violations, on_violation)
        self._model: dict[str, int] = {}

    def feed(self, o: KvOp) -> Violation | None:
        """Apply one kv operation to the model; returns any violation."""
        return self._apply(o.op, o.key, o.value, o.round)

    def feed_columns(
        self, op: str, round_: int, keys: Sequence[object],
        values: Sequence[int],
    ) -> None:
        """Apply one batch operation's keys in order (keys compare as
        ``str``, the :class:`~repro.obs.record.KvRecord` layout)."""
        apply = self._apply
        for key, value in zip(keys, values):
            apply(op, str(key), value, round_)

    def _apply(
        self, op: str, key: str, value: int, round_: int
    ) -> Violation | None:
        rep = self.report
        rep.kv_checked += 1
        if op == "put":
            self._model[key] = value
            return None
        if op == "delete":
            self._model.pop(key, None)
            return None
        expected = self._model.get(key, -1)
        if value == expected:
            return None
        kind = "kv-stale-get" if expected != -1 else "kv-phantom-get"
        v = Violation(
            kind=kind, var=key, round=round_, proc=-1,
            expected=expected, observed=value,
        )
        self._record(v)
        return v

    def retire(self, horizon: int) -> None:
        """No-op: the kv model is already bounded by live keys."""

    @property
    def state_size(self) -> int:
        """Live keys in the model."""
        return len(self._model)


class ConsistencyChecker:
    """Verify recorded traces against serial-memory-per-variable semantics.

    Parameters
    ----------
    max_violations:
        Cap on *listed* violations (the total is still counted), so a
        completely broken trace yields a bounded report.
    """

    def __init__(self, max_violations: int = 100):
        if max_violations < 1:
            raise ValueError("max_violations must be >= 1")
        self.max_violations = max_violations

    # -- shared-memory trace -----------------------------------------------

    def check_mem_ops(self, ops: list[MemOp]) -> ViolationReport:
        """Check a sequence of :class:`MemOp` records (any order; the
        trace's round/seq fields define the arbitration order)."""
        core = MemOpCore(max_violations=self.max_violations)
        for o in sorted(ops, key=lambda o: (o.round, _OP_RANK[o.op], o.seq)):
            core.feed(o)
        return core.report

    # -- kv trace ----------------------------------------------------------

    def check_kv_ops(self, ops: list[KvOp]) -> ViolationReport:
        """Check a kvstore trace against plain dict semantics."""
        core = KvOpCore(max_violations=self.max_violations)
        for o in sorted(ops, key=lambda o: (o.round, o.seq)):
            core.feed(o)
        return core.report

    # -- whole trace -------------------------------------------------------

    def check_events(self, events) -> ViolationReport:
        """Check every discipline a trace carries (``mem.op`` events
        against serial memory, ``kv.op`` events against a dict)."""
        rep = self.check_mem_ops(mem_ops_from_events(events))
        return rep.merge(self.check_kv_ops(kv_ops_from_events(events)))
