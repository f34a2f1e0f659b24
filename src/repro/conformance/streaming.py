"""Online windowed conformance checking over the live event bus.

The batch :class:`~repro.conformance.checker.ConsistencyChecker` sorts
a *whole* recorded trace -- O(trace) memory, verdict at process exit.
This module runs the same per-variable serial-memory verification
*while the system executes*, with bounded memory:

* :class:`StreamingChecker` buffers memory / kv operations by
  logical round and **closes** a round once the stream has advanced
  ``window`` rounds past it -- the protocol's total round order means a
  closed round can never receive another operation (late arrivals are
  counted, not checked).  Closed rounds are fed, in arbitration order,
  to the same :class:`~repro.conformance.checker.MemOpCore` /
  :class:`~repro.conformance.checker.KvOpCore` the batch checker uses,
  and old past-value state is retired, so retained state is
  O(window x live variables) instead of O(trace).
* :class:`Watchdog` attaches a streaming checker plus a
  :class:`~repro.obs.stream.HealthAggregator` to an event bus (one
  batch record per event): one ``poll()`` drains the bounded
  subscription, verifies everything the window allows, and updates the
  live ``watch.*`` gauges (checker lag, retained state, drop counts,
  violations).
* :func:`run_watchdog_canary` proves the point online: the ``q/2 + 1``
  stale-majority attack -- the one fault the protocol cannot mask -- is
  flagged *mid-run*, rounds before the trace ends, pinned to the exact
  (processor, round, variable); the ``<= q/2`` control run stays
  violation-free and shows up only in the degraded-health gauges.

Windowed precision: retiring past-value state means a stale value can
only be *named* stale while its writing round is within roughly two
windows of the reader; older divergences are still flagged, but as
``phantom-read``.  The violation/no-violation verdict itself never
depends on the window, which is what the differential tests pin against
the batch checker.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterator

import repro.obs as _obs
from repro.conformance.checker import (
    KvOpCore,
    MemOpCore,
    Violation,
    ViolationReport,
    _OP_RANK,
)
from repro.conformance.recorder import KvOp, MemOp
from repro.obs.metrics import MetricsRegistry
from repro.obs.record import BatchRecord, KvRecord
from repro.obs.stream import EventBus, HealthAggregator
from repro.workloads.generators import op_batches

if TYPE_CHECKING:  # pragma: no cover - typing only, schemes import lazily
    from repro.schemes import MemoryScheme

__all__ = [
    "StreamingChecker",
    "Watchdog",
    "HealthSnapshot",
    "OnlineCanaryResult",
    "StreamFuzzResult",
    "SCHEME_KEYS",
    "scheme_by_key",
    "run_watchdog_canary",
    "stream_fuzz",
]

#: watchdog events: the two batch-record kinds the bus carries
_WATCH_EVENTS = frozenset({BatchRecord.EVENT, KvRecord.EVENT})

#: a buffered item: (writes-before-reads rank, arrival number of its
#: first request, requests, the operation or batch record)
_Entry = tuple[int, int, int, object]
_ARRIVAL = itemgetter(0, 1)


class StreamingChecker:
    """Incremental windowed PRAM-conformance verifier.

    Parameters
    ----------
    window:
        Rounds a round stays open after the stream moves past it.  A
        round ``r`` is closed (checked and retired) once an operation
        with round ``> r + window`` arrives.  Must cover the protocol's
        reordering horizon -- with the repo's strictly-increasing batch
        timestamps any ``window >= 1`` is safe; larger windows only
        widen the stale-read naming range (see module docstring).
    max_violations:
        Listed-violation cap per discipline (as in the batch checker).
    on_violation:
        Optional callback invoked with each :class:`Violation` the
        moment its round is closed -- the online-detection hook.

    Operations arrive one at a time (:meth:`feed_mem` /
    :meth:`feed_kv`, numbered by their own ``seq``) or one batch record
    at a time (:meth:`feed_record`, its requests numbered on in arrival
    order); a closed round is checked writes first, then by number.
    Running counts keep :attr:`buffered` and :attr:`state_size` O(1).
    """

    def __init__(
        self,
        window: int = 8,
        max_violations: int = 100,
        on_violation: Callable[[Violation], None] | None = None,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._mem = MemOpCore(max_violations, on_violation=on_violation)
        self._kv = KvOpCore(max_violations, on_violation=on_violation)
        # round -> [(rank, seq, requests, MemOp | KvOp | record)]
        self._pending: dict[int, list[_Entry]] = {}
        self._kv_pending: dict[int, list[_Entry]] = {}
        self._buffered = 0
        self.high = -1  # highest round seen
        self.retired_through = -1  # rounds <= this are closed
        self.late_dropped = 0
        self.events_fed = 0
        self.peak_state = 0
        self.peak_buffered = 0
        #: (first violation, stream-head round when it was flagged)
        self.first_violation: tuple[Violation, int] | None = None

    # -- feeding -------------------------------------------------------

    def feed_mem(self, op: MemOp) -> None:
        """Buffer one memory operation and advance the window."""
        self._buffer(self._pending, op.round, (_OP_RANK[op.op], op.seq, 1, op))

    def feed_kv(self, op: KvOp) -> None:
        """Buffer one kv operation and advance the window."""
        self._buffer(self._kv_pending, op.round, (0, op.seq, 1, op))

    def feed_record(self, rec: BatchRecord | KvRecord) -> None:
        """Buffer one batch record's requests and advance the window.

        The requests are numbered on from the operations fed so far; a
        ``count`` batch moves no memory and is skipped.  Peaks are
        sampled as if the requests arrived one by one: once after the
        first is buffered (before any round closes), once after all.
        """
        seq = self.events_fed + 1
        if isinstance(rec, KvRecord):
            self._buffer(
                self._kv_pending, rec.time, (0, seq, len(rec.keys), rec)
            )
        elif rec.values is not None:
            self._buffer(
                self._pending, rec.time,
                (_OP_RANK[rec.op], seq, rec.requests, rec),
            )

    def _buffer(self, pending: dict[int, list[_Entry]], r: int,
                entry: _Entry) -> None:
        n = entry[2]
        if not n:
            return
        self.events_fed += n
        if r <= self.retired_through:
            self.late_dropped += n
            return
        pending.setdefault(r, []).append(entry)
        self._buffered += 1
        self._advance(r)
        if n > 1:
            self._buffered += n - 1
            self._note_state()

    def finish(self) -> ViolationReport:
        """Close every still-open round and return the final report."""
        for r in sorted(set(self._pending) | set(self._kv_pending)):
            self._close_round(r)
        if self.high > self.retired_through:
            self.retired_through = self.high
        return self.report

    # -- window machinery ----------------------------------------------

    def _advance(self, r: int) -> None:
        if r > self.high:
            self.high = r
        self._note_state()
        horizon = self.high - self.window
        if horizon <= self.retired_through:
            return
        due = sorted(
            rr
            for rr in set(self._pending) | set(self._kv_pending)
            if rr <= horizon
        )
        for rr in due:
            self._close_round(rr)
        self.retired_through = horizon
        # past-value state older than one extra window behind the
        # retirement point can no longer be referenced by an open round
        self._mem.retire(horizon - self.window + 1)

    def _close_round(self, r: int) -> None:
        for pending, core in (
            (self._pending, self._mem), (self._kv_pending, self._kv)
        ):
            entries = pending.pop(r, None)
            if not entries:
                continue
            entries.sort(key=_ARRIVAL)
            for _, _, n, item in entries:
                self._buffered -= n
                if isinstance(item, BatchRecord):
                    self._mem.feed_columns(
                        item.op, r, item.var_ids.tolist(),
                        item.values.tolist(),  # type: ignore[union-attr]
                        None if item.lost is None else item.lost.tolist(),
                    )
                elif isinstance(item, KvRecord):
                    self._kv.feed_columns(
                        item.op, r, item.keys, item.values.tolist()
                    )
                else:
                    core.feed(item)  # type: ignore[arg-type]
            if self.first_violation is None and core.report.violations:
                self.first_violation = (core.report.violations[0], self.high)

    def _note_state(self) -> None:
        s = self.state_size
        if s > self.peak_state:
            self.peak_state = s
        b = self._buffered
        if b > self.peak_buffered:
            self.peak_buffered = b

    # -- introspection -------------------------------------------------

    @property
    def report(self) -> ViolationReport:
        """Merged mem+kv report over everything closed so far."""
        rep = ViolationReport()
        rep.merge(self._mem.report)
        rep.merge(self._kv.report)
        return rep

    @property
    def n_violations(self) -> int:
        """Violations flagged so far (listed + truncated)."""
        return (
            self._mem.report.n_violations + self._kv.report.n_violations
        )

    @property
    def buffered(self) -> int:
        """Operations waiting in still-open rounds."""
        return self._buffered

    @property
    def lag_rounds(self) -> int:
        """Open rounds between the stream head and the retired point."""
        if self.high < 0:
            return 0
        return self.high - self.retired_through

    @property
    def state_size(self) -> int:
        """Total retained entries: buffered ops + core model state."""
        return self._buffered + self._mem.state_size + self._kv.state_size

    def __repr__(self) -> str:
        return (
            f"StreamingChecker(window={self.window}, high={self.high}, "
            f"retired={self.retired_through}, buffered={self.buffered}, "
            f"violations={self.n_violations})"
        )


@dataclass
class HealthSnapshot:
    """One point-in-time health reading of a :class:`Watchdog`."""

    round: int
    batches: int
    requests: int
    lost: int
    degraded: int
    min_quorum_margin: int | None
    checker_lag: int
    state_size: int
    buffered: int
    violations: int
    events_dropped: int

    def to_dict(self) -> dict:
        """JSON-serializable form (every field, in order)."""
        return asdict(self)


class Watchdog:
    """Live conformance + health monitor attached to an event bus.

    Subscribes to the two batch-record kinds, feeds a
    :class:`StreamingChecker` and a
    :class:`~repro.obs.stream.HealthAggregator`, and exports the
    ``watch.*`` metrics.  Call :meth:`poll` between protocol batches
    (or on any cadence); the subscription queue is bounded, so a
    watchdog that polls too rarely loses records *visibly* (the
    ``watch.events_dropped`` gauge) instead of stalling the system.
    """

    def __init__(
        self,
        bus: EventBus,
        window: int = 8,
        max_violations: int = 100,
        registry: MetricsRegistry | None = None,
        queue_capacity: int | None = None,
    ):
        self.bus = bus
        self.registry = registry if registry is not None else MetricsRegistry()
        self.checker = StreamingChecker(
            window=window, max_violations=max_violations
        )
        self.health = HealthAggregator(self.registry)
        self.subscription = bus.subscribe(
            names=_WATCH_EVENTS, capacity=queue_capacity
        )
        self.snapshots: list[HealthSnapshot] = []
        self._counted = 0  # violations already in ``watch.violations``

    @property
    def violations_seen(self) -> int:
        """Violations flagged so far (listed + truncated)."""
        return self.checker.n_violations

    @property
    def first_violation(self) -> tuple[Violation, int] | None:
        """(first violation, stream-head round when it was flagged)."""
        return self.checker.first_violation

    def poll(self) -> int:
        """Drain the subscription; returns the number of records routed.
        Each record reaches the checker whole, its requests numbered in
        arrival order; protocol records also feed the health
        aggregator."""
        events = self.subscription.drain()
        feed = self.checker.feed_record
        for e in events:
            rec = e["record"]
            if isinstance(rec, BatchRecord):
                self.health.consume(rec)
            feed(rec)
        self._update_gauges()
        return len(events)

    def _update_gauges(self) -> None:
        m = self.registry
        seen = self.checker.n_violations
        if seen > self._counted:
            m.counter("watch.violations").inc(seen - self._counted)
            self._counted = seen
        m.gauge("watch.checker_lag").set(self.checker.lag_rounds)
        m.gauge("watch.state_size").update_max(self.checker.state_size)
        m.gauge("watch.events_dropped").set(self.subscription.dropped)

    def snapshot(self) -> HealthSnapshot:
        """Record and return one health snapshot."""
        req = self.registry.counter("watch.requests").value
        snap = HealthSnapshot(
            round=self.health.last_round,
            batches=self.health.batches,
            requests=int(req),
            lost=self.health.lost,
            degraded=self.health.degraded,
            min_quorum_margin=self.health.min_quorum_margin,
            checker_lag=self.checker.lag_rounds,
            state_size=self.checker.state_size,
            buffered=self.checker.buffered,
            violations=self.checker.n_violations,
            events_dropped=self.subscription.dropped,
        )
        self.snapshots.append(snap)
        return snap

    def finish(self) -> ViolationReport:
        """Drain, close every open round, and return the final report."""
        self.poll()
        rep = self.checker.finish()
        self._update_gauges()
        return rep

    def detach(self) -> None:
        """Unsubscribe from the bus (idempotent)."""
        self.bus.unsubscribe(self.subscription)

    @property
    def ok(self) -> bool:
        """No violations flagged so far."""
        return self.checker.n_violations == 0


@contextmanager
def _watching(window: int) -> Iterator[Watchdog]:
    """A :class:`Watchdog` on a fresh bus, installed for the block."""
    bus = EventBus()
    prev = _obs.set_bus(bus)
    try:
        yield Watchdog(bus, window=window)
    finally:
        _obs.set_bus(prev)


# ---------------------------------------------------------------------------
# online stale-majority canary


@dataclass
class OnlineCanaryResult:
    """Outcome of the online stale-majority detection experiment."""

    expected: list[tuple[int, int, int]]  # (processor, round, variable)
    silent_wrong_reads: int
    detected_at_round: int | None  # stream round when first flagged
    last_round: int  # final round of the run
    report: ViolationReport
    snapshots: list[HealthSnapshot] = field(default_factory=list)
    control_violations: int = 0
    control_degraded: int = 0
    control_lost: int = 0

    @property
    def flagged(self) -> set[tuple[int, int, int]]:
        """(proc, round, var) of every stale-read violation."""
        return {
            (v.proc, v.round, int(v.var))
            for v in self.report.violations
            if v.kind == "stale-read"
        }

    @property
    def detected_online(self) -> bool:
        """Every silently-wrong read was flagged *before* the run ended,
        pinned to its exact (processor, round, variable)."""
        return (
            self.silent_wrong_reads > 0
            and self.detected_at_round is not None
            and self.detected_at_round < self.last_round
            and set(self.expected) <= self.flagged
        )

    @property
    def control_clean(self) -> bool:
        """The <= q/2 control run: zero violations, visibly degraded."""
        return self.control_violations == 0 and self.control_degraded > 0

    @property
    def ok(self) -> bool:
        """Attack caught mid-run AND the below-threshold control stayed
        violation-free."""
        return self.detected_online and self.control_clean

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "schema": 1,
            "ok": self.ok,
            "detected_online": self.detected_online,
            "control_clean": self.control_clean,
            "expected": [list(e) for e in self.expected],
            "flagged": sorted(list(f) for f in self.flagged),
            "silent_wrong_reads": self.silent_wrong_reads,
            "detected_at_round": self.detected_at_round,
            "last_round": self.last_round,
            "control_violations": self.control_violations,
            "control_degraded": self.control_degraded,
            "control_lost": self.control_lost,
            "snapshots": [s.to_dict() for s in self.snapshots],
            "report": self.report.to_dict(),
        }


def run_watchdog_canary(
    seed: int = 0,
    n_victims: int = 3,
    window: int = 8,
) -> OnlineCanaryResult:
    """Run the q/2+1 stale-majority attack under a live watchdog.

    The attack round (3) must be *closed* -- and its stale reads flagged
    -- while the run is still issuing batches: after the poisoned read,
    the run keeps writing for ``window + 2`` more rounds, polling the
    watchdog after every batch, and records the stream round at which
    the first violation fired.  A second, below-threshold run (exactly
    ``q/2`` stale copies, with the *stale* cells' modules failed so the
    fresh majority answers) must produce zero violations and non-zero
    degraded-health gauges.
    """
    from repro.faults.attacks import build_stale_majority, payload_values

    # -- attack run: q/2 + 1 stale copies, fresh remnant unreachable ----
    attack = build_stale_majority(seed=seed, n_victims=n_victims)
    with _watching(window) as watchdog:
        attack.seed_history()
        watchdog.poll()
        attack.go_stale()
        res = attack.read(time=3)
        watchdog.poll()
        watchdog.snapshot()
        expected, silent_wrong = attack.victim_verdict(res, time=3)
        detected_at = None
        last_round = 3
        for t in range(4, 3 + window + 3):
            attack.write_tail(time=t, values=payload_values(t, attack.idx))
            last_round = t
            watchdog.poll()
            if detected_at is None and watchdog.violations_seen > 0:
                detected_at = t
            watchdog.snapshot()
        watchdog.finish()
        watchdog.snapshot()

    # -- control run: exactly q/2 stale copies, fresh majority answers --
    control = build_stale_majority(seed=seed, n_victims=n_victims)
    with _watching(window) as cwatch:
        control.seed_history()
        control.go_stale(k=control.ctx.tolerance, cut="stale")
        control.read(time=3)
        for t in range(4, 3 + window + 3):
            control.write_tail(time=t, values=payload_values(t, control.idx))
            cwatch.poll()
        cwatch.finish()

    return OnlineCanaryResult(
        expected=expected,
        silent_wrong_reads=silent_wrong,
        detected_at_round=detected_at,
        last_round=last_round,
        report=watchdog.checker.report,
        snapshots=list(watchdog.snapshots),
        control_violations=cwatch.checker.n_violations,
        control_degraded=cwatch.health.degraded,
        control_lost=cwatch.health.lost,
    )


# ---------------------------------------------------------------------------
# streaming fuzz driver


#: CLI keys for the six conformance schemes
SCHEME_KEYS = ("single", "mv", "uw", "grid", "pp2", "pp4")


def scheme_by_key(key: str) -> "MemoryScheme":
    """Build one conformance scheme by its CLI key (see
    :func:`repro.conformance.differential.conformance_schemes`)."""
    from repro.schemes import (
        GridScheme,
        MehlhornVishkinScheme,
        PPAdapter,
        SingleCopyScheme,
        UpfalWigdersonScheme,
    )

    builders = {
        "single": lambda: SingleCopyScheme(64, 512, hashed=True),
        "mv": lambda: MehlhornVishkinScheme(64, 512, c=3),
        "uw": lambda: UpfalWigdersonScheme(64, 512, c=2),
        "grid": lambda: GridScheme(63),
        "pp2": lambda: PPAdapter(2, 3),
        "pp4": lambda: PPAdapter(4, 3),
    }
    if key not in builders:
        raise ValueError(f"unknown scheme key {key!r}; one of {SCHEME_KEYS}")
    return builders[key]()


@dataclass
class StreamFuzzResult:
    """Outcome of one streaming fuzz run under the watchdog."""

    scheme: str
    seed: int
    total_ops: int
    window: int
    events: int
    rounds: int
    peak_state: int
    peak_buffered: int
    late_dropped: int
    events_dropped: int
    report: ViolationReport
    snapshots: list[HealthSnapshot] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Clean run: no violations, no silent event loss."""
        return self.report.ok and self.events_dropped == 0

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "schema": 1,
            "ok": self.ok,
            "scheme": self.scheme,
            "seed": self.seed,
            "total_ops": self.total_ops,
            "window": self.window,
            "events": self.events,
            "rounds": self.rounds,
            "peak_state": self.peak_state,
            "peak_buffered": self.peak_buffered,
            "late_dropped": self.late_dropped,
            "events_dropped": self.events_dropped,
            "report": self.report.to_dict(),
            "snapshots": [s.to_dict() for s in self.snapshots],
            "metrics": self.metrics,
        }


def stream_fuzz(
    scheme: "MemoryScheme | str | None" = None,
    total_ops: int = 2000,
    seed: int = 0,
    window: int = 8,
    max_batch: int = 32,
    snapshot_every: int = 50,
    on_snapshot: Callable[[HealthSnapshot], None] | None = None,
) -> StreamFuzzResult:
    """Replay a seeded workload with the live watchdog attached.

    No trace is recorded -- every batch record flows through the bounded
    bus into the :class:`StreamingChecker`, which is how the memory
    bound is real: at no point does the process hold the full op
    history.  ``scheme`` is a scheme instance or a key from
    :data:`SCHEME_KEYS` (default ``pp2``).
    """
    label = scheme if isinstance(scheme, str) else None
    if scheme is None or isinstance(scheme, str):
        scheme = scheme_by_key(scheme or "pp2")
    if label is None:
        label = scheme.name
    from repro.faults.attacks import payload_values

    plan = op_batches(
        scheme.M, total_ops, seed=seed, max_batch=min(max_batch, scheme.M)
    )
    store = scheme.make_store()
    ops = 0
    t = 0
    with _watching(window) as watchdog:
        for t, (kind, idx) in enumerate(plan, start=1):
            ops += idx.size
            if kind == "write":
                scheme.write(
                    idx, values=payload_values(t, idx), store=store, time=t
                )
            else:
                scheme.read(idx, store=store, time=t)
            watchdog.poll()
            if snapshot_every and t % snapshot_every == 0:
                snap = watchdog.snapshot()
                if on_snapshot is not None:
                    on_snapshot(snap)
    report = watchdog.finish()
    snap = watchdog.snapshot()
    if on_snapshot is not None:
        on_snapshot(snap)
    return StreamFuzzResult(
        scheme=label,
        seed=seed,
        total_ops=ops,
        window=window,
        events=watchdog.checker.events_fed,
        rounds=t,
        peak_state=watchdog.checker.peak_state,
        peak_buffered=watchdog.checker.peak_buffered,
        late_dropped=watchdog.checker.late_dropped,
        events_dropped=watchdog.subscription.dropped,
        report=report,
        snapshots=list(watchdog.snapshots),
        metrics=watchdog.registry.snapshot(),
    )
