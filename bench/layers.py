"""Layer spans recorded from outside the program.

The traced run wraps each layer's public entry points (class methods and
module-level bindings) for the duration of a ``with LayerTracer():``
block and restores the originals on exit, so nothing under ``src/``
changes.  A span is one call: layer name, start, end, the enclosing
span, and the scheme-batch or service-round id current when it opened.
Spans stay in memory; :meth:`LayerTracer.write_jsonl` dumps them.

A layer's self time is its span time minus the time its direct child
spans cover (:func:`self_times`).  Calls are synchronous and
single-threaded, so spans nest strictly and that subtraction is exact.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

#: Layers in table order: name and the wrapped entry points, each
#: ``(module, attribute path)``.  ``core.protocol`` is patched at the two
#: bindings that call it, since both modules import the function by name.
LAYERS: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = (
    ("service.loadgen", (("repro.service.loadgen", "run_load"),)),
    ("service.batcher", (
        ("repro.service.batcher", "ServiceCore.run_round"),
        ("repro.service.batcher", "ServiceCore.submit_batch"),
    )),
    ("service.oracle", (
        ("repro.service.testing", "AdmissibleOracle.apply_round"),
    )),
    ("conformance.watchdog", (
        ("repro.conformance.streaming", "Watchdog.poll"),
        ("repro.conformance.streaming", "Watchdog.snapshot"),
        ("repro.conformance.streaming", "Watchdog.finish"),
    )),
    ("obs.publish", (("repro.obs", "publish"),)),
    ("kvstore", (
        ("repro.kvstore.store", "ParallelKVStore.batch_get"),
        ("repro.kvstore.store", "ParallelKVStore.batch_put"),
        ("repro.kvstore.store", "ParallelKVStore.batch_delete"),
    )),
    ("core.scheme", (("repro.core.scheme", "PPScheme.access"),)),
    ("schemes.access", (("repro.schemes.base", "MemoryScheme.access"),)),
    ("core.addressing.unrank", (
        ("repro.core.addressing", "AddressLayer.vunrank"),
    )),
    ("core.graph.modules", (
        ("repro.core.graph", "MemoryGraph.vgamma_variables"),
    )),
    ("core.addressing.slots", (
        ("repro.core.addressing", "AddressLayer.vslots"),
    )),
    ("core.protocol", (
        ("repro.core.scheme", "run_access_protocol"),
        ("repro.schemes.base", "run_access_protocol"),
    )),
    ("mpc.arbitration", (("repro.mpc.machine", "MPC.step"),)),
    ("mpc.memory", (
        ("repro.mpc.memory", "SharedCopyStore.read"),
        ("repro.mpc.memory", "SharedCopyStore.write"),
    )),
)

LAYER_NAMES = tuple(name for name, _ in LAYERS)

#: Layers every workload runs.  Only these report a self time in the
#: result line: the others read exactly 0 s on the workloads that bypass
#: them, so their times appear in the layer table and span file only.
SCHEME_PATH = (
    "core.addressing.unrank",
    "core.graph.modules",
    "core.addressing.slots",
    "core.protocol",
    "mpc.arbitration",
    "mpc.memory",
)

#: Per-layer result metrics: (name, unit, better).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((f"{layer}.self_s", "s", "lower") for layer in SCHEME_PATH),
    *((f"{layer}.calls", "count", "lower") for layer in LAYER_NAMES),
    ("core.addressing.unrank.per_access", "ratio", "lower"),
    ("core.protocol.iterations_per_batch", "ratio", "lower"),
    ("core.protocol.variables", "count", "lower"),
    ("mpc.arbitration.served_ratio", "ratio", "higher"),
    ("kvstore.keys", "count", "lower"),
    ("kvstore.var_accesses_per_key", "ratio", "lower"),
    ("conformance.watchdog.events_routed", "count", "lower"),
    ("conformance.watchdog.peak_state", "count", "lower"),
    ("conformance.watchdog.events_dropped", "count", "lower"),
    ("service.batcher.admitted_per_round", "ratio", "higher"),
    ("residual_s", "s", "lower"),
    ("coverage", "ratio", "higher"),
    ("trace_overhead", "ratio", "lower"),
)

#: Entry points whose call opens a new scheme batch or service round.
_OPENS_BATCH = {"PPScheme.access", "ServiceCore.run_round"}


def _note_access(tr: "LayerTracer", args, result) -> None:
    n = int(np.asarray(args[1]).size)
    if tr.depth["kvstore"]:
        tr.counts["kvstore.var_accesses"] += n


def _note_protocol(tr: "LayerTracer", args, result) -> None:
    tr.counts["core.protocol.iterations"] += result.total_iterations
    tr.counts["core.protocol.variables"] += result.n_requests


def _note_step(tr: "LayerTracer", args, result) -> None:
    tr.counts["mpc.arbitration.requests"] += int(np.asarray(args[1]).size)
    tr.counts["mpc.arbitration.served"] += int(np.asarray(result).size)


def _note_kv(tr: "LayerTracer", args, result) -> None:
    tr.counts["kvstore.keys"] += len(args[1])


def _note_poll(tr: "LayerTracer", args, result) -> None:
    tr.counts["conformance.watchdog.events_routed"] += int(result)


def _note_finish(tr: "LayerTracer", args, result) -> None:
    wd = args[0]
    tr.peak_state = max(tr.peak_state, wd.checker.peak_state)
    tr.counts["conformance.watchdog.events_dropped"] += wd.subscription.dropped


def _note_round(tr: "LayerTracer", args, result) -> None:
    if result is not None:
        tr.counts["service.batcher.rounds"] += 1
        tr.counts["service.batcher.admitted"] += result.admitted


#: Counters taken where the work happens, keyed by attribute path.
_NOTES = {
    "PPScheme.access": _note_access,
    "MemoryScheme.access": _note_access,
    "run_access_protocol": _note_protocol,
    "MPC.step": _note_step,
    "ParallelKVStore.batch_get": _note_kv,
    "ParallelKVStore.batch_put": _note_kv,
    "ParallelKVStore.batch_delete": _note_kv,
    "Watchdog.poll": _note_poll,
    "Watchdog.finish": _note_finish,
    "ServiceCore.run_round": _note_round,
}


class LayerTracer:
    """Records one span per call into each layer while installed.

    Use as a context manager; the wrappers are removed on exit, also
    when the traced code raises.  A span is the list
    ``[layer, start, end, parent, batch]``; ``parent`` indexes
    :attr:`spans` (-1 for a root).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: largest streaming-checker state any finished watchdog reached
        self.peak_state = 0
        self.depth: dict[str, int] = defaultdict(int)
        self.batch = 0
        self._top = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, path: str, fn):
        tr = self
        note = _NOTES.get(path)
        opens_batch = path in _OPENS_BATCH
        spans = self.spans
        depth = self.depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if opens_batch:
                tr.batch += 1
            parent = tr._top
            rec = [layer, perf_counter(), 0.0, parent, tr.batch]
            tr._top = len(spans)
            spans.append(rec)
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tr._top = parent
                depth[layer] -= 1
            if note is not None:
                note(tr, args, result)
            return result

        return wrapper

    def __enter__(self) -> "LayerTracer":
        try:
            for layer, targets in LAYERS:
                for module_name, path in targets:
                    owner: object = importlib.import_module(module_name)
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr]
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(layer, path, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, fh, **tags) -> None:
        """One JSON object per span, in the order the spans opened."""
        for i, (layer, start, end, parent, batch) in enumerate(self.spans):
            fh.write(json.dumps({
                **tags, "id": i, "name": layer, "start": start, "end": end,
                "parent": parent, "batch": batch,
            }) + "\n")


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """``(self seconds, calls)`` per layer name.

    Self time is a span's duration minus the summed durations of its
    direct children.
    """
    if not spans:
        return {}, {}
    names = [s[0] for s in spans]
    start = np.fromiter((s[1] for s in spans), dtype=np.float64, count=len(spans))
    end = np.fromiter((s[2] for s in spans), dtype=np.float64, count=len(spans))
    parent = np.fromiter((s[3] for s in spans), dtype=np.int64, count=len(spans))
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(spans)
    )
    own = dur - child
    labels, inverse = np.unique(np.asarray(names), return_inverse=True)
    total = np.bincount(inverse, weights=own, minlength=labels.size)
    calls = np.bincount(inverse, minlength=labels.size)
    return (
        {str(k): float(v) for k, v in zip(labels, total)},
        {str(k): int(v) for k, v in zip(labels, calls)},
    )


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(
    tracer: LayerTracer, reps: int, wall_s: float, untraced_s: float,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer result metrics and the full self-time table.

    Times and counts are per traced repetition.  ``wall_s`` is the mean
    traced repetition wall and ``untraced_s`` the median untraced one;
    ``trace_overhead`` leaves the oracle's time out of the traced wall,
    because the untraced repetitions run without it.
    """
    own, calls = self_times(tracer.spans)
    table = {layer: own.get(layer, 0.0) / reps for layer in LAYER_NAMES}
    c = {layer: calls.get(layer, 0) / reps for layer in LAYER_NAMES}
    k = {name: v / reps for name, v in tracer.counts.items()}
    covered = sum(table.values())
    out: dict[str, float] = {}
    for layer in SCHEME_PATH:
        out[f"{layer}.self_s"] = table[layer]
    for layer in LAYER_NAMES:
        out[f"{layer}.calls"] = c[layer]
    accesses = c["core.scheme"] + c["schemes.access"]
    out["core.addressing.unrank.per_access"] = _ratio(
        c["core.addressing.unrank"], accesses
    )
    out["core.protocol.iterations_per_batch"] = _ratio(
        k.get("core.protocol.iterations", 0), c["core.protocol"]
    )
    out["core.protocol.variables"] = k.get("core.protocol.variables", 0)
    out["mpc.arbitration.served_ratio"] = _ratio(
        k.get("mpc.arbitration.served", 0),
        k.get("mpc.arbitration.requests", 0),
    )
    out["kvstore.keys"] = k.get("kvstore.keys", 0)
    out["kvstore.var_accesses_per_key"] = _ratio(
        k.get("kvstore.var_accesses", 0), k.get("kvstore.keys", 0)
    )
    for name in ("events_routed", "events_dropped"):
        out[f"conformance.watchdog.{name}"] = k.get(
            f"conformance.watchdog.{name}", 0
        )
    out["conformance.watchdog.peak_state"] = tracer.peak_state
    out["service.batcher.admitted_per_round"] = _ratio(
        k.get("service.batcher.admitted", 0),
        k.get("service.batcher.rounds", 0),
    )
    out["residual_s"] = wall_s - covered
    out["coverage"] = _ratio(covered, wall_s)
    out["trace_overhead"] = (
        _ratio(wall_s - table["service.oracle"], untraced_s) - 1.0
    )
    return out, table


def render_table(table: dict[str, float], metrics: dict[str, float],
                 wall_s: float) -> str:
    """The layer table: self time, share of the wall and calls, largest
    first, then the residual and coverage."""
    lines = [f"{'layer':<26} {'self_s':>10} {'share':>7} {'calls':>11}"]
    for layer in sorted(LAYER_NAMES, key=lambda n: -table[n]):
        share = _ratio(table[layer], wall_s)
        calls = metrics[f"{layer}.calls"]
        lines.append(
            f"{layer:<26} {table[layer]:>10.4f} {share:>7.1%} {calls:>11.1f}"
        )
    lines.append(
        f"{'residual':<26} {metrics['residual_s']:>10.4f} "
        f"{_ratio(metrics['residual_s'], wall_s):>7.1%}"
    )
    lines.append(
        f"wall {wall_s:.4f} s  coverage {metrics['coverage']:.4f}  "
        f"trace_overhead {metrics['trace_overhead']:+.4f}"
    )
    return "\n".join(lines)
