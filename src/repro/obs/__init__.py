"""Unified observability: metrics, tracing, and cost accounting for the stack.

Everything the paper's bounds are about is a counted quantity --
iterations, congestion, served copies, address-computation cost.  This
package gives those counts one export path.  It is **off by default**
and instrumented hot paths are guarded by a single cheap
:func:`enabled` check, so a run with observability disabled pays
(measurably, see ``tests/obs/test_overhead.py``) under 5% overhead --
in practice well under 1%.

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
- :func:`publish` -- forward one named event to the tracer (if
  recording) and the bus (if installed); callers must check
  :func:`enabled` first, like every other emission site.
- :func:`enabled` -- True iff metrics, tracing, a bus, or a ledger is
  active; the guard every instrumentation site checks first.
- :func:`collect` -- context manager that enables both for a block and
  restores the previous state.

### Metric names

| name | kind | meaning |
|---|---|---|
| ``scheme.builds`` | counter | :class:`~repro.core.scheme.PPScheme` constructions |
| ``address.placement_calls`` | counter | vectorized address computations (unrank + Lemma 1/4) |
| ``address.unranks`` | counter | scalar O(log N) unrank calls |
| ``protocol.accesses{op=...}`` | counter | protocol batches run, labeled by op |
| ``protocol.iterations`` | counter | total protocol iterations across batches |
| ``protocol.phase_iterations`` | histogram | per-phase iteration distribution |
| ``mpc.steps`` / ``mpc.requests`` / ``mpc.served`` | counter | machine step/request/serve totals |
| ``mpc.max_congestion`` | gauge | high-watermark of same-step module congestion |
| ``kvstore.ops{op=...}`` | counter | kvstore batch operations (put/get/delete) |
| ``kvstore.probe_rounds`` | counter | hash-probe protocol rounds |
| ``protocol.lost_variables`` | counter | variables that lost their majority quorum (degraded mode) |
| ``faults.scenarios{model=...}`` | counter | campaign scenario runs, labeled by fault model |
| ``faults.lost`` | counter | quorum losses observed across campaign scenarios |
| ``faults.violations`` | counter | semantic violations below the q/2 threshold (should stay 0) |
| ``watch.batches`` / ``watch.requests`` | counter | protocol batches / requests seen by the live watchdog |
| ``watch.lost`` / ``watch.degraded`` | counter | lost / degraded variables reported in health events |
| ``watch.round`` | gauge | latest logical round observed by the watchdog |
| ``watch.quorum_margin`` | gauge | live copies beyond the majority for the worst variable class |
| ``watch.load_skew`` | histogram | per-batch max-congestion skew vs a balanced load (x100) |
| ``watch.iterations`` | histogram | per-batch protocol iteration totals |
| ``watch.checker_lag`` | gauge | rounds buffered but not yet retired by the streaming checker |
| ``watch.state_size`` | gauge | high-watermark of the streaming checker's retained state |
| ``watch.events_dropped`` | gauge | bus events dropped at the watchdog's bounded queue |
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
| ``address.placement`` | span | ``count, slots`` (slots: bool -- Lemma-4 slots computed too) |
| ``address.vunrank`` | span | ``count`` |
| ``protocol.access`` | span | ``op, requests, q, phases, total_iterations`` |
| ``protocol.phase`` | span | ``phase, variables, iterations, live_history`` (the R_k trajectory) |
| ``mpc.step`` | event | ``requests, served, congestion`` |
| ``kvstore.op`` | event | ``op, keys`` |
| ``kvstore.probe`` | span | ``batch, rounds`` |
| ``kvstore.probe_round`` | event | ``round, pending`` |
| ``faults.campaign`` | span | ``qs, models, violations`` |
| ``faults.threshold`` | span | ``q`` (one adversarial ladder) |
| ``faults.scenario`` | span | ``q, model, intensity`` |
| ``mem.op`` | event | ``op, var, value, round, proc, phase, lost`` (one per request; consumed by :mod:`repro.conformance`) |
| ``kv.op`` | event | ``op, key, value, round`` (one per key of a kvstore batch) |

``mem.op`` / ``kv.op`` also go to the installed event bus (same
fields, bus-assigned ``seq``).  Two events are **bus-only** -- they feed
the live watchdog without perturbing recorded traces:

| name | fields |
|---|---|
| ``protocol.health`` | ``op, round, requests, copies, majority, modules, iterations, served, max_congestion, load_skew, lost, degraded, quorum_margin`` (one per read/write batch) |
| ``scheme.topology`` | ``q, n, N, M, copies, majority`` (one per scheme build) |
| ``ledger.batch`` | ``op, requests, copies, majority, modules, rounds, phi, retries, congestion_p50, congestion_p95, congestion_max`` (one per batch while a ledger is installed) |

### Overhead guarantees

With observability disabled every instrumentation site reduces to one
``enabled()`` call returning False (hot loops hoist even that out);
``tests/obs/test_overhead.py`` measures the per-guard cost, counts the
sites exercised by a full-load (q=2, n=7) batch, and asserts the total
is below 5% of the batch's wall time.  With a tracer installed, the
emitted per-phase iteration counts equal ``AccessResult`` exactly
(round-trip test in ``tests/obs/test_trace.py``).

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
    "enabled",
    "collect",
    "span",
    "on_mpc_step",
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
    global _metrics_on, _active
    _metrics_on = False
    _active = _tracer.enabled or _bus is not None or _ledger is not None


def tracer() -> NullTracer | RecordingTracer:
    """The currently installed tracer (the no-op one by default)."""
    return _tracer


def set_tracer(t: RecordingTracer | None) -> NullTracer | RecordingTracer:
    """Install a tracer (``None`` restores the no-op default); returns
    the previously installed one so callers can restore it."""
    global _tracer, _active
    prev = _tracer
    _tracer = _NULL_TRACER if t is None else t
    _active = (
        _metrics_on or _tracer.enabled or _bus is not None
        or _ledger is not None
    )
    return prev


def bus() -> EventBus | None:
    """The installed event bus, or None (the zero-cost default)."""
    return _bus


def set_bus(b: EventBus | None) -> EventBus | None:
    """Install an event bus (``None`` removes it); returns the previous
    one so callers can restore it."""
    global _bus, _active
    prev = _bus
    _bus = b
    _active = (
        _metrics_on or _tracer.enabled or _bus is not None
        or _ledger is not None
    )
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
    global _ledger, _active
    prev = _ledger
    if prev is not None and prev is not led:
        prev.on_uninstall()
    if led is not None and led is not prev:
        led.on_install()
    _ledger = led
    _active = (
        _metrics_on or _tracer.enabled or _bus is not None
        or _ledger is not None
    )
    return prev


def publish(name: str, **fields: object) -> None:
    """Emit one named event to the tracer (if recording) and the bus
    (if installed).  Callers must check :func:`enabled` first -- this is
    the streaming sibling of :func:`on_mpc_step`."""
    if _tracer.enabled:
        _tracer.event(name, **fields)
    if _bus is not None:
        _bus.publish(name, fields)


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


def on_mpc_step(requests: int, served: int, congestion: int) -> None:
    """Hook for :meth:`repro.mpc.machine.MPC.step`; callers must check
    :func:`enabled` first."""
    if _metrics_on:
        _REGISTRY.counter("mpc.steps").inc()
        _REGISTRY.counter("mpc.requests").inc(requests)
        _REGISTRY.counter("mpc.served").inc(served)
        _REGISTRY.gauge("mpc.max_congestion").update_max(congestion)
    _tracer.event(
        "mpc.step", requests=requests, served=served, congestion=congestion
    )
