"""Unified observability: metrics, tracing, and cost accounting for the stack.

Everything the paper's bounds are about is a counted quantity --
iterations, congestion, served copies, address-computation cost.  This
package gives those counts one export path.  It is **off by default**.
Code outside this package reaches it only through :func:`span`,
:func:`emit`, :func:`enabled` and the ``set_*`` installers (lint rule
D4); ``span`` and ``emit`` collapse to one flag check when it is off,
so a run with observability disabled pays (measurably, see
``tests/obs/test_overhead.py``) under 5% overhead -- in practice well
under 1%.  Every view (trace events, metrics, ledger, bus) is derived
here from the batch records.

### Switchboard

- :func:`enable_metrics` / :func:`disable_metrics` -- toggle collection
  into the process-global :class:`~repro.obs.metrics.MetricsRegistry`
  (reachable via :func:`metrics`).
- :func:`set_tracer` -- install a
  :class:`~repro.obs.trace.RecordingTracer` (or ``None`` to restore the
  zero-overhead :class:`~repro.obs.trace.NullTracer`).
- :func:`set_bus` -- install a :class:`~repro.obs.stream.EventBus` (or
  ``None`` to remove it) for live streaming consumers; see
  :mod:`repro.obs.stream` for the bounded-queue backpressure contract.
- :func:`set_ledger` -- install a
  :class:`~repro.obs.ledger.Ledger` (or ``None`` to remove it) for
  bound-quantity accounting: protocol rounds, congestion
  distributions, and field-op counts.
  Installing also routes the :mod:`repro.gf.opcount` sink into
  :mod:`repro.gf.gf2m`; :func:`ledger` returns the installed one.
- :func:`emit` -- hand one batch record to every installed sink
  (see "Batch records" below); self-guarded, like :func:`span`.
- :func:`publish` -- push one named event onto the bus (if installed);
  the bus leg of :func:`emit`, called nowhere else (lint rule D4).
- :func:`enabled` -- True iff metrics, tracing, a bus, or a ledger is
  active; the two record builders check it before copying a record's
  columns.
- :func:`collect` -- context manager that enables both for a block and
  restores the previous state.

### Metric names

| name | kind | meaning |
|---|---|---|
| ``protocol.accesses{op=...}`` | counter | protocol batches run, labeled by op |
| ``protocol.iterations`` | counter | total protocol iterations across batches |
| ``protocol.phase_iterations`` | histogram | per-phase iteration distribution |
| ``mpc.steps`` / ``mpc.requests`` / ``mpc.served`` | counter | machine step/request/serve totals, from each batch's ``MPCStats`` |
| ``mpc.max_congestion`` | gauge | high-watermark of same-step module congestion |
| ``kvstore.ops{op=...}`` | counter | kvstore batch operations (put/get/delete) |
| ``protocol.lost_variables`` | counter | variables that lost their majority quorum (degraded mode) |
| ``faults.scenarios{model=...}`` | counter | campaign scenario runs, labeled by fault model |
| ``faults.lost`` | counter | quorum losses observed across campaign scenarios |
| ``faults.violations`` | counter | semantic violations below the q/2 threshold (should stay 0) |
| ``watch.batches`` / ``watch.requests`` | counter | read/write protocol batches / requests seen by the live watchdog |
| ``watch.lost`` / ``watch.degraded`` | counter | lost / degraded variables of those batches |
| ``watch.round`` | gauge | latest logical round observed by the watchdog |
| ``watch.quorum_margin`` | gauge | live copies beyond the majority for the worst variable class |
| ``watch.load_skew`` | histogram | per-batch max-congestion skew vs a balanced load (x100) |
| ``watch.iterations`` | histogram | per-batch protocol iteration totals |
| ``watch.checker_lag`` | gauge | rounds buffered but not yet retired by the streaming checker |
| ``watch.state_size`` | gauge | high-watermark of the streaming checker's retained state |
| ``watch.events_dropped`` | gauge | batch records dropped at the watchdog's bounded queue |
| ``watch.violations`` | counter | consistency violations flagged online |

Every metric is a count; performance seconds come from the repo
benchmark (``bench/run.py``), which times each layer from outside the
program.
Histogram snapshots also carry ``p50``/``p95``/``p99`` (nearest-rank
over a bounded deterministic sketch).

### Trace event schema

JSONL, one object per line; every record has ``type`` ("span"/"event"),
``name``, ``seq``, ``ts`` (seconds since tracer start); spans add
``dur``.  Spans are emitted at close, so children precede parents.

| name | type | fields |
|---|---|---|
| ``scheme.build`` | span | ``q, n, N, M, addressing`` |
| ``protocol.access`` | span | ``op, requests, q, phases, engine, total_iterations, mpc_steps, mpc_requests, mpc_served, mpc_max_congestion`` (the batch's machine totals) |
| ``protocol.phase`` | span | ``phase, variables, iterations, live_history`` (the R_k trajectory) |
| ``kvstore.probe`` | span | ``batch, rounds`` |
| ``faults.campaign`` | span | ``qs, models, violations`` |
| ``faults.threshold`` | span | ``q`` (one adversarial ladder) |
| ``faults.scenario`` | span | ``q, model, intensity`` |
| ``mem.op`` | event | ``op, var, value, round, proc, phase, lost`` (one per request; consumed by :mod:`repro.conformance`) |
| ``kv.op`` | event | ``op, key, value, round`` (one per key of a kvstore batch) |
| ``ledger.batch`` | event | ``op, requests, copies, majority, modules, rounds, phi, retries, congestion_p50, congestion_p95, congestion_max`` (one per protocol batch while a ledger is installed) |

### Batch records

A batch reports once, as one record handed to :func:`emit`: a
:class:`~repro.obs.record.BatchRecord` per protocol batch, a
:class:`~repro.obs.record.KvRecord` per kvstore batch operation.  The
tracer expands it into the ``mem.op`` / ``kv.op`` rows above (then
``ledger.batch`` while a ledger is installed), the ledger keeps it, the
``protocol.*`` / ``mpc.*`` / ``kvstore.ops`` metrics count it, and the
bus carries the record itself -- the bus's only two event kinds, never
traced:

| name | fields |
|---|---|
| ``protocol.batch`` | ``record`` (a :class:`~repro.obs.record.BatchRecord`) |
| ``kv.batch`` | ``record`` (a :class:`~repro.obs.record.KvRecord`) |

### Overhead guarantees

With observability disabled every :func:`span` and :func:`emit` site
reduces to one flag check (the record builders hoist an
:func:`enabled` call instead, to skip the column copies);
``tests/obs/test_overhead.py`` measures the per-guard cost, counts the
sites exercised by a full-load (q=2, n=7) batch, and asserts the total
is below 5% of the batch's wall time.  With a tracer installed, the
emitted per-phase iteration counts equal ``AccessResult`` exactly
(round-trip test in ``tests/obs/test_trace.py``), and results are the
same with every backend installed as with none
(``tests/obs/test_neutrality.py``).

### Surfacing

``python -m repro access --trace-out FILE`` records a JSONL trace;
``python -m repro metrics`` prints a JSON snapshot after a batch;
``tools/trace_report.py`` renders a trace as the per-phase table of
EXPERIMENTS.md E06; ``python -m repro
explain`` (:mod:`repro.obs.explain`) runs the six-scheme E6-style suite
under a :class:`~repro.obs.ledger.Ledger`, checks every measured count
against the fitted theorem envelopes of
:class:`repro.core.bounds.BoundRegistry`, and renders the
theory-vs-measured and congestion tables into
``benchmarks/results/explain_report.md``.

Performance is timed in one place, the repo benchmark
(``bench/run.py``): end to end per workload and per layer, with a
coverage gate.  Profile a workload with ``PYTHONPATH=src python -m
cProfile -s tottime bench/workloads.py --workload W --seconds 2``.
:mod:`repro.obs.perf` keeps the cross-run ``BENCH_*.json`` record
format that ``bench/run.py --bench-out`` writes, and gates regressions
via ``python -m repro perf record|report|check``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.ledger import Ledger
from repro.obs.record import BatchRecord, KvRecord
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.stream import EventBus, Subscription
from repro.obs.trace import (
    NULL_SPAN,
    NullTracer,
    RecordingTracer,
    read_jsonl,
    traced,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "RecordingTracer",
    "EventBus",
    "Subscription",
    "Ledger",
    "BatchRecord",
    "KvRecord",
    "traced",
    "read_jsonl",
    "metrics",
    "metrics_enabled",
    "enable_metrics",
    "disable_metrics",
    "tracer",
    "set_tracer",
    "bus",
    "set_bus",
    "ledger",
    "set_ledger",
    "publish",
    "emit",
    "enabled",
    "collect",
    "span",
]

#: Emit docs/API.md with this module's full docstring (it is the
#: observability reference), not just the first paragraph.
__apidoc__ = "full"

_NULL_TRACER = NullTracer()
_REGISTRY = MetricsRegistry()
_metrics_on = False
_tracer = _NULL_TRACER
_bus: EventBus | None = None
_ledger: Ledger | None = None
_active = False  # metrics/tracing/bus/ledger; the one flag hot guards read


def metrics() -> MetricsRegistry:
    """The process-global metrics registry (exists even while disabled)."""
    return _REGISTRY


def metrics_enabled() -> bool:
    """True iff instrumented code is recording into :func:`metrics`."""
    return _metrics_on


def enable_metrics() -> MetricsRegistry:
    """Turn metrics collection on; returns the global registry."""
    global _metrics_on, _active
    _metrics_on = True
    _active = True
    return _REGISTRY


def disable_metrics() -> None:
    """Turn metrics collection off (the registry keeps its contents)."""
    global _metrics_on
    _metrics_on = False
    _refresh()


def _refresh() -> None:
    global _active
    _active = (
        _metrics_on or _tracer.enabled or _bus is not None
        or _ledger is not None
    )


def tracer() -> NullTracer | RecordingTracer:
    """The currently installed tracer (the no-op one by default)."""
    return _tracer


def set_tracer(t: RecordingTracer | None) -> NullTracer | RecordingTracer:
    """Install a tracer (``None`` restores the no-op default); returns
    the previously installed one so callers can restore it."""
    global _tracer
    prev = _tracer
    _tracer = _NULL_TRACER if t is None else t
    _refresh()
    return prev


def bus() -> EventBus | None:
    """The installed event bus, or None (the zero-cost default)."""
    return _bus


def set_bus(b: EventBus | None) -> EventBus | None:
    """Install an event bus (``None`` removes it); returns the previous
    one so callers can restore it."""
    global _bus
    prev = _bus
    _bus = b
    _refresh()
    return prev


def ledger() -> Ledger | None:
    """The installed bound-accounting ledger, or None (the default)."""
    return _ledger


def set_ledger(led: Ledger | None) -> Ledger | None:
    """Install a :class:`~repro.obs.ledger.Ledger` (``None`` removes it);
    returns the previous one so callers can restore it.

    Installing wires the GF(2^m) op sink into :mod:`repro.gf.gf2m` and
    flips :func:`enabled`; removing restores the prior sink, so the
    disabled path goes back to one guard per site."""
    global _ledger
    prev = _ledger
    if prev is not None and prev is not led:
        prev.on_uninstall()
    if led is not None and led is not prev:
        led.on_install()
    _ledger = led
    _refresh()
    return prev


def publish(name: str, **fields: object) -> None:
    """Push one named event onto the installed bus (no-op without one):
    the bus leg of :func:`emit`, one call per batch."""
    if _bus is not None:
        _bus.publish(name, fields)


def emit(rec: BatchRecord | KvRecord) -> None:
    """Hand one batch record to every installed sink; a no-op while
    :func:`enabled` is False, like :func:`span`."""
    if not _active:
        return
    protocol = isinstance(rec, BatchRecord)
    led = _ledger if protocol else None
    if _tracer.enabled:
        for fields in rec.op_events():
            _tracer.event(rec.OP_EVENT, **fields)
        if led is not None:
            _tracer.event("ledger.batch", **rec.ledger_fields())
    if _metrics_on:
        m = _REGISTRY
        if protocol:
            m.counter("protocol.accesses", op=rec.op).inc()
            m.counter("protocol.iterations").inc(rec.rounds)
            hist = m.histogram("protocol.phase_iterations")
            for p in rec.phases:
                hist.observe(p.iterations)
            if rec.n_lost:
                m.counter("protocol.lost_variables").inc(rec.n_lost)
            st = rec.stats
            m.counter("mpc.steps").inc(st.steps)
            m.counter("mpc.requests").inc(st.requests)
            m.counter("mpc.served").inc(st.served)
            m.gauge("mpc.max_congestion").update_max(st.max_congestion)
        else:
            m.counter("kvstore.ops", op=rec.op).inc()
    if led is not None:
        led.record_batch(rec)
    if _bus is not None:
        publish(rec.EVENT, record=rec)


def enabled() -> bool:
    """The hot-path guard: is any observability backend active?"""
    return _active


@contextmanager
def collect(trace: bool = True):
    """Enable metrics (and, by default, a fresh recording tracer) for a
    block; yields ``(registry, tracer_or_None)`` and restores the
    previous switchboard state on exit."""
    was_on = _metrics_on
    enable_metrics()
    t = RecordingTracer() if trace else None
    prev = set_tracer(t) if trace else None
    try:
        yield _REGISTRY, t
    finally:
        if trace:
            set_tracer(prev if prev is not _NULL_TRACER else None)
        if not was_on:
            disable_metrics()


@contextmanager
def span(name: str, **fields: object) -> Iterator[Any]:
    """Instrumentation-site helper: a trace span, collapsing to a bare
    yield when observability is off."""
    if not _active:
        yield NULL_SPAN
        return
    with _tracer.span(name, **fields) as sp:
        yield sp

