"""Bounded in-process event bus for streaming observability.

The tracer (:mod:`repro.obs.trace`) records *everything, for later*;
the bus delivers events *now, to whoever is listening* -- the live
watchdog (:mod:`repro.conformance.streaming`), health aggregators, or a
test harness.  It carries one event per batch: :func:`repro.obs.emit`
publishes each batch record (``protocol.batch`` / ``kv.batch``, field
``record``) while the tracer expands the same record into per-request
events, so one emission site feeds the post-hoc and online consumers.

Backpressure contract
---------------------

Every :class:`Subscription` owns a bounded FIFO.  ``publish`` never
blocks and never grows a queue past its capacity: when a subscriber's
queue is full the event is **dropped for that subscriber** and counted
(``Subscription.dropped``, plus the bus-wide ``EventBus.dropped``).
Consumers poll with :meth:`Subscription.drain`; a consumer that cannot
keep up loses events -- visibly, via the drop counters the watchdog
exports as the ``watch.events_dropped`` gauge -- rather than stalling
the protocol under test.  When no bus is installed,
:func:`repro.obs.enabled` stays False and instrumented code pays the
usual single-guard cost.

Events are plain dicts.  The bus stamps each with a monotonic ``seq``
(its own arbitration order, mirroring the tracer's) and the event
``name``; one dict (and the immutable record it carries) is shared by
all matching subscriptions, so consumers must treat events as
read-only.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.record import BatchRecord

__all__ = ["Subscription", "EventBus", "HealthAggregator"]

#: default per-subscription queue capacity (events)
DEFAULT_CAPACITY = 65536


class Subscription:
    """One subscriber's bounded event queue.

    Parameters
    ----------
    names:
        Event names to receive, or None for every event.
    capacity:
        Queue bound; a push past it drops the event (counted).
    """

    __slots__ = ("names", "capacity", "_queue", "delivered", "dropped")

    def __init__(
        self,
        names: "frozenset[str] | set[str] | None" = None,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if capacity < 1:
            raise ValueError("subscription capacity must be >= 1")
        self.names = frozenset(names) if names is not None else None
        self.capacity = capacity
        self._queue: deque = deque()
        self.delivered = 0
        self.dropped = 0

    def matches(self, name: str) -> bool:
        """True iff this subscription wants events named ``name``."""
        return self.names is None or name in self.names

    def push(self, event: dict) -> bool:
        """Enqueue one event; False (and a drop count) when full."""
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            return False
        self._queue.append(event)
        self.delivered += 1
        return True

    def drain(self, limit: int | None = None) -> list[dict]:
        """Pop up to ``limit`` queued events (all of them by default)."""
        n = len(self._queue) if limit is None else min(limit, len(self._queue))
        return [self._queue.popleft() for _ in range(n)]

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:
        what = "all" if self.names is None else ",".join(sorted(self.names))
        return (
            f"Subscription({what}, queued={len(self._queue)}, "
            f"dropped={self.dropped})"
        )


class EventBus:
    """Fan-out of published events to bounded subscriptions.

    ``capacity`` is the default queue bound handed to
    :meth:`subscribe`; each subscription may override it.  Publishing
    with zero subscriptions is cheap (one list walk over nothing) but
    the real zero-cost path is not installing a bus at all --
    :func:`repro.obs.enabled` then stays False and instrumented sites
    never build the event dict.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("bus capacity must be >= 1")
        self.capacity = capacity
        self._subs: list[Subscription] = []
        self._seq = 0
        self.published = 0
        self.dropped = 0

    def subscribe(
        self,
        names: "frozenset[str] | set[str] | None" = None,
        capacity: int | None = None,
    ) -> Subscription:
        """Register a subscription for ``names`` (None = everything)."""
        sub = Subscription(
            names=names,
            capacity=self.capacity if capacity is None else capacity,
        )
        self._subs.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Remove a subscription (unknown subscriptions are ignored)."""
        try:
            self._subs.remove(sub)
        except ValueError:
            pass

    def publish(self, name: str, fields: dict) -> None:
        """Stamp ``fields`` with (name, seq) and push to every matching
        subscription.  The dict is shared read-only across subscribers."""
        self._seq += 1
        event = dict(fields)
        event["name"] = name
        event["seq"] = self._seq
        self.published += 1
        for sub in self._subs:
            if sub.matches(name) and not sub.push(event):
                self.dropped += 1

    @property
    def n_subscriptions(self) -> int:
        """Live subscription count."""
        return len(self._subs)

    def __repr__(self) -> str:
        return (
            f"EventBus({len(self._subs)} subs, published={self.published}, "
            f"dropped={self.dropped})"
        )


class HealthAggregator:
    """Fold read/write protocol batch records into the live ``watch.*``
    metrics: batch/request/lost/degraded counters, the round, the quorum
    margin (the worst variable's live copies beyond the majority; 0 =
    one more failure loses data) and its minimum, and p50/p95/p99
    histograms of the iterations and the load skew ``100 x
    max_congestion / (served / (modules x steps))`` (100 = balanced)."""

    def __init__(self, registry: "MetricsRegistry"):
        self.registry = registry
        self.batches = 0
        self.lost = 0
        self.degraded = 0
        self.min_quorum_margin: int | None = None
        self.last_round = 0

    def consume(self, rec: "BatchRecord") -> None:
        """Fold one protocol batch record."""
        if rec.op == "count":
            return
        m = self.registry
        report, st = rec.fault_report, rec.stats
        lost = rec.n_lost
        degraded = 0 if report is None else report.n_degraded
        worst = 0  # dead copies of the worst variable (none if empty)
        if report is not None and report.dead_copies.size:
            worst = int(report.dead_copies.max())
        margin = rec.copies - worst - rec.majority
        skew = (
            int(round(100 * st.max_congestion * rec.modules * st.steps
                      / st.served))
            if st.served else 0
        )
        self.batches += 1
        self.last_round = rec.time
        self.lost += lost
        self.degraded += degraded
        if self.min_quorum_margin is None or margin < self.min_quorum_margin:
            self.min_quorum_margin = margin
        m.counter("watch.batches").inc()
        m.counter("watch.requests").inc(rec.requests)
        m.counter("watch.lost").inc(lost)
        m.counter("watch.degraded").inc(degraded)
        m.gauge("watch.round").set(self.last_round)
        m.gauge("watch.quorum_margin").set(margin)
        m.histogram("watch.load_skew").observe(skew)
        m.histogram("watch.iterations").observe(rec.rounds)

    def __repr__(self) -> str:
        return (
            f"HealthAggregator(batches={self.batches}, lost={self.lost}, "
            f"degraded={self.degraded}, "
            f"min_quorum_margin={self.min_quorum_margin})"
        )
