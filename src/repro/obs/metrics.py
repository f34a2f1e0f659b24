"""Metrics primitives: counters, gauges, and histograms, with labels.

A :class:`MetricsRegistry` is a named bag of metric instruments with
get-or-create semantics (``registry.counter("protocol.iterations")``),
point-in-time :meth:`~MetricsRegistry.snapshot`, cross-registry
:meth:`~MetricsRegistry.merge` (e.g. to fold per-worker registries into
one), :meth:`~MetricsRegistry.reset`, and JSON export.  Instruments may
carry labels, which become part of the metric identity
(``counter("protocol.accesses", op="read")`` snapshots under the key
``protocol.accesses{op=read}``).  Every instrument holds a count; wall
time is measured by the repo benchmark (``bench/run.py``), not here.

Merge semantics per instrument kind: counters and histograms
accumulate; gauges keep the maximum (the registry's gauges are
high-watermarks such as ``mpc.max_congestion``).

The global registry lives in :mod:`repro.obs`; collection is off by
default and instrumented code never touches these objects until
:func:`repro.obs.enable_metrics` is called.
"""

from __future__ import annotations

import json
import math

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "QUANTILES",
]

#: Default fixed histogram buckets: geometric-ish upper bounds suited to
#: iteration/congestion counts (values above the last bound land in +Inf).
DEFAULT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 1000)

#: Quantiles every histogram snapshot summarizes (p50/p95/p99).
QUANTILES = (0.5, 0.95, 0.99)


class _QuantileSketch:
    """Bounded-memory quantile estimator with deterministic thinning.

    Keeps every ``stride``-th observation; when the retained sample set
    reaches ``cap`` it drops every other sample and doubles the stride.
    No randomness is involved (rule F2: reservoir sampling would need an
    RNG), so identical observation sequences produce identical sketches.
    Estimates are nearest-rank quantiles over the retained samples --
    exact below ``cap`` observations, a stride-uniform subsample above.
    """

    __slots__ = ("cap", "stride", "n", "samples", "_phase")

    def __init__(self, cap: int = 512):
        if cap < 2:
            raise ValueError("sketch cap must be >= 2")
        self.cap = cap
        self.reset()

    def observe(self, value: float) -> None:
        """Fold one observation into the sketch."""
        self.n += 1
        if self._phase == 0:
            self.samples.append(value)
            if len(self.samples) >= self.cap:
                self._thin()
        self._phase = (self._phase + 1) % self.stride

    def _thin(self) -> None:
        self.samples = self.samples[::2]
        self.stride *= 2

    def quantile(self, p: float) -> float | None:
        """Nearest-rank quantile of the retained samples (None if empty)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("quantile p must be in [0, 1]")
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, int(p * len(ordered)))
        return ordered[rank]

    def summary(self, suffix: str = "") -> dict:
        """The standard p50/p95/p99 snapshot keys."""
        return {
            f"p{int(q * 100)}{suffix}": self.quantile(q) for q in QUANTILES
        }

    def merge(self, other: "_QuantileSketch") -> None:
        """Pool another sketch's samples, re-thinning back under cap."""
        self.n += other.n
        self.samples.extend(other.samples)
        self.stride = max(self.stride, other.stride)
        while len(self.samples) >= self.cap:
            self._thin()
        self._phase = 0

    def reset(self) -> None:
        """Forget every observation."""
        self.n = 0
        self.stride = 1
        self._phase = 0
        self.samples: list = []


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, delta: int | float = 1) -> None:
        """Add ``delta`` (must be >= 0) to the count."""
        if delta < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += delta

    def snapshot(self) -> dict:
        """Plain-JSON state of the instrument."""
        return {"type": self.kind, "value": self.value}

    def merge(self, other: "Counter") -> None:
        """Accumulate another counter into this one."""
        self.value += other.value

    def reset(self) -> None:
        """Zero the count."""
        self.value = 0


class Gauge:
    """A sampled value; merged across registries as a high-watermark."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value) -> None:
        """Record the current value."""
        self.value = value

    def update_max(self, value) -> None:
        """Keep the running maximum of the observed values."""
        if value > self.value:
            self.value = value

    def snapshot(self) -> dict:
        """Plain-JSON state of the instrument."""
        return {"type": self.kind, "value": self.value}

    def merge(self, other: "Gauge") -> None:
        """High-watermark combine: keep the larger value."""
        self.value = max(self.value, other.value)

    def reset(self) -> None:
        """Zero the gauge."""
        self.value = 0


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max side statistics.

    ``buckets`` are inclusive upper bounds; an observation larger than
    every bound is counted in the implicit ``+Inf`` bucket.  A bounded
    deterministic :class:`_QuantileSketch` rides along, so snapshots
    carry p50/p95/p99 alongside the bucket counts.
    """

    kind = "histogram"
    __slots__ = (
        "buckets", "bucket_counts", "count", "total", "min", "max", "sketch",
    )

    def __init__(self, buckets: tuple = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.buckets = tuple(buckets)
        self.sketch = _QuantileSketch()
        self.reset()

    def observe(self, value) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.sketch.observe(value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def quantile(self, p: float) -> float | None:
        """Estimated p-quantile of the observations (None if empty)."""
        return self.sketch.quantile(p)

    def snapshot(self) -> dict:
        """Plain-JSON state of the instrument."""
        labels = [f"<={b}" for b in self.buckets] + ["+Inf"]
        snap = {
            "type": self.kind,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": dict(zip(labels, self.bucket_counts)),
        }
        snap.update(self.sketch.summary())
        return snap

    def merge(self, other: "Histogram") -> None:
        """Accumulate another histogram (bucket layouts must match)."""
        if other.buckets != self.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        self.count += other.count
        self.total += other.total
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c
        for v in (other.min, other.max):
            if v is not None:
                self.min = v if self.min is None else min(self.min, v)
                self.max = v if self.max is None else max(self.max, v)
        self.sketch.merge(other.sketch)

    def reset(self) -> None:
        """Clear every bucket and side statistic."""
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.sketch.reset()


def _key(name: str, labels: dict) -> str:
    """Canonical metric key: ``name{k1=v1,k2=v2}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Named instruments with get-or-create, snapshot, merge, and reset.

    All accessor methods (:meth:`counter`, :meth:`gauge`,
    :meth:`histogram`) return the existing instrument for
    the (name, labels) identity or create a fresh one; asking for an
    existing name with a different instrument kind raises ``ValueError``.
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, labels: dict, kind: type, *args):
        key = _key(name, labels)
        m = self._metrics.get(key)
        if m is None:
            m = kind(*args)
            self._metrics[key] = m
        elif not isinstance(m, kind):
            raise ValueError(
                f"metric {key!r} is a {m.kind}, not a {kind.kind}"
            )
        return m

    def counter(self, name: str, **labels: object) -> Counter:
        """Get or create a counter."""
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get or create a gauge."""
        return self._get(name, labels, Gauge)

    def histogram(
        self, name: str, buckets: tuple = DEFAULT_BUCKETS, **labels: object
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        return self._get(name, labels, Histogram, buckets)

    def snapshot(self) -> dict:
        """Point-in-time plain-JSON view of every instrument, key-sorted."""
        return {k: self._metrics[k].snapshot() for k in sorted(self._metrics)}

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (see module docstring for
        the per-kind combine rules); unseen metrics are adopted."""
        for key, m in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                mine = (
                    Histogram(m.buckets) if isinstance(m, Histogram)
                    else type(m)()
                )
                self._metrics[key] = mine
            elif type(mine) is not type(m):
                raise ValueError(
                    f"metric {key!r} is a {mine.kind} here, a {m.kind} there"
                )
            mine.merge(m)

    def reset(self) -> None:
        """Zero every instrument (registrations and labels survive)."""
        for m in self._metrics.values():
            m.reset()

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, default=_jsonable)

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


def _jsonable(x):
    """Fallback encoder for numpy scalars and other int/float-likes."""
    if hasattr(x, "item"):
        return x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    raise TypeError(f"not JSON serializable: {type(x).__name__}")
