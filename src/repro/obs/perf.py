"""Benchmark telemetry and the cross-run performance trajectory.

:mod:`repro.obs` counts inside a *single* process; this module
observes the repo *across runs*.  The repo benchmark (``bench/run.py
--bench-out DIR``), the load generator (``repro load --bench-out``) and
the ``repro perf record`` GF-kernel quick suite route their timed
sections through a :class:`BenchRecorder`, which writes one
machine-readable run record -- a ``BENCH_<utc-stamp>.json`` file.  A
:class:`Trajectory` loads every such record (plus the per-experiment
metrics snapshots ``benchmarks/_util.save_tables`` persists), and a
:class:`RegressionDetector` compares the latest run against a rolling
MAD-based baseline so a hot-path slowdown fails CI instead of waiting
for someone to reread EXPERIMENTS.md.

### BENCH_*.json schema (version 1)

One JSON object per file:

| field | type | meaning |
|---|---|---|
| ``schema`` | int | record layout version (this is version ``1``) |
| ``kind`` | str | always ``"repro.bench"`` |
| ``created_utc`` | str | ISO-8601 UTC creation time, e.g. ``2026-08-05T12:34:56Z`` |
| ``env`` | object | environment fingerprint: ``git_sha``, ``python``, ``numpy``, ``platform``, ``cpus``, ``source`` |
| ``sections`` | object | timed sections, name -> summary (below) |
| ``scalars`` | object | headline scalars, name -> float (fitted exponents, Phi values, throughputs) |
| ``metrics`` | object | :meth:`repro.obs.metrics.MetricsRegistry.snapshot` taken at record time (may be empty) |

Each section summary: ``samples`` (raw seconds, monotonic clock),
``count``, ``median``, ``mad`` (median absolute deviation), ``best``,
``mean``, ``warmup``, ``repeats``.  Sections are *wall times* (lower is
better) and are what the regression gate checks; scalars are tracked on
the dashboard but not gated (their good direction is metric-specific).

### Regression rule

For each section of the latest record with a positive finite median,
the detector takes the medians of the same section over the previous
``window`` records, forms ``baseline = median(past)`` and
``mad = median(|past - baseline|)``, and flags a regression when::

    latest > baseline + max(ratio * baseline, mad_k * mad)

so one-off machine noise (absorbed by the MAD term) and sub-``ratio``
drift never flag, a first run or a section missing from the baseline is
skipped, an improvement is never flagged, and NaN / zero-time samples
are ignored.  ``repro perf check`` exits non-zero when any section
flags (``--soft`` reports without failing, for CI bootstrap).

### Surfacing

``repro perf record`` times the GF(2^m) kernels (the one path no
``bench/`` layer times) and writes a record;
``repro perf report`` renders per-section trend tables with unicode
sparklines and writes ``benchmarks/results/perf_dashboard.md``;
``repro perf check`` is the CI gate; ``tools/bench_delta.py`` diffs two
records directly.  ``pytest benchmarks/`` records the full suite via
``benchmarks/conftest.py``.
"""

from __future__ import annotations

import glob
import json
import math
import os
import statistics
import subprocess
import sys
import time

from repro.obs.metrics import MetricsRegistry, _jsonable

__all__ = [
    "SCHEMA_VERSION",
    "RECORD_KIND",
    "BENCH_PREFIX",
    "BenchRecorder",
    "Trajectory",
    "Regression",
    "PerfCheck",
    "RegressionDetector",
    "env_fingerprint",
    "median_mad",
    "load_record",
    "trend",
    "render_report",
    "run_quick_suite",
]

#: Emit docs/API.md with this module's full docstring (it documents the
#: BENCH_*.json schema and the regression rule).
__apidoc__ = "full"

SCHEMA_VERSION = 1
RECORD_KIND = "repro.bench"
BENCH_PREFIX = "BENCH_"
_STAMP_FMT = "%Y%m%dT%H%M%SZ"


def _utc_stamp() -> str:
    """Compact UTC timestamp for BENCH file names (``20260805T123456Z``)."""
    return time.strftime(_STAMP_FMT, time.gmtime())


def _stamp_to_iso(stamp: str) -> str:
    """``20260805T123456Z`` -> ``2026-08-05T12:34:56Z``."""
    t = time.strptime(stamp, _STAMP_FMT)
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", t)


def env_fingerprint(source: str = "") -> dict:
    """Where and on what a record was taken: git SHA, python/numpy
    versions, platform, CPU count, and the recording ``source``."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": sys.platform,
        "cpus": os.cpu_count(),
        "source": source,
    }


def median_mad(values) -> tuple[float, float]:
    """``(median, median-absolute-deviation)`` of a non-empty series."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("median_mad of an empty series")
    med = statistics.median(vals)
    mad = statistics.median(abs(v - med) for v in vals)
    return float(med), float(mad)


def _finite_positive(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v) and v > 0


class BenchRecorder:
    """Collects one run's timed sections and headline scalars into a
    ``BENCH_*.json`` record.

    Timing uses the monotonic ``time.perf_counter`` clock with
    warmup-then-repeat-k sampling; summaries carry median/MAD/best so
    the trajectory can form noise-aware baselines.
    """

    def __init__(self, source: str = ""):
        self.env = env_fingerprint(source)
        self._samples: dict[str, list[float]] = {}
        self._meta: dict[str, dict] = {}
        self._scalars: dict[str, float] = {}
        self._metrics: dict = {}

    @property
    def empty(self) -> bool:
        """True iff nothing has been recorded yet."""
        return not (self._samples or self._scalars)

    def measure(self, name: str, fn, warmup: int = 1, repeats: int = 5) -> dict:
        """Time ``fn()`` under the recorder: ``warmup`` unrecorded calls,
        then ``repeats`` recorded ones; returns the section summary."""
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        for _ in range(warmup):
            fn()
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            self.observe(name, time.perf_counter() - t0)
        self._meta[name] = {"warmup": warmup, "repeats": repeats}
        return self.summary(name)

    def observe(self, name: str, seconds: float) -> None:
        """Fold one externally timed sample (seconds) into a section."""
        self._samples.setdefault(name, []).append(float(seconds))

    def scalar(self, name: str, value) -> None:
        """Record a headline scalar (fitted exponent, Phi, throughput)."""
        self._scalars[name] = float(value)

    def attach_metrics(self, metrics: MetricsRegistry | dict) -> None:
        """Attach a :mod:`repro.obs` metrics snapshot to the record."""
        self._metrics = (
            metrics.snapshot() if isinstance(metrics, MetricsRegistry)
            else dict(metrics)
        )

    def summary(self, name: str) -> dict:
        """Median/MAD/best/mean summary of one section's samples."""
        samples = self._samples[name]
        med, mad = median_mad(samples)
        meta = self._meta.get(name, {"warmup": 0, "repeats": len(samples)})
        return {
            "samples": list(samples),
            "count": len(samples),
            "median": med,
            "mad": mad,
            "best": min(samples),
            "mean": sum(samples) / len(samples),
            **meta,
        }

    def record(self, stamp: str | None = None) -> dict:
        """The full schema-1 run record as a plain dict."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": RECORD_KIND,
            "created_utc": _stamp_to_iso(stamp or _utc_stamp()),
            "env": self.env,
            "sections": {n: self.summary(n) for n in sorted(self._samples)},
            "scalars": dict(sorted(self._scalars.items())),
            "metrics": self._metrics,
        }

    def write(self, directory: str = ".", stamp: str | None = None) -> str:
        """Write ``BENCH_<stamp>.json`` into ``directory`` (a fresh name
        is picked on a same-second collision); returns the path."""
        stamp = stamp or _utc_stamp()
        rec = self.record(stamp)
        path = os.path.join(directory, f"{BENCH_PREFIX}{stamp}.json")
        k = 2
        while os.path.exists(path):
            path = os.path.join(directory, f"{BENCH_PREFIX}{stamp}_{k}.json")
            k += 1
        with open(path, "w") as fh:
            json.dump(rec, fh, indent=2, default=_jsonable)
            fh.write("\n")
        return path


def load_record(path: str) -> dict:
    """Load and validate one ``BENCH_*.json`` record."""
    with open(path) as fh:
        rec = json.load(fh)
    if not isinstance(rec, dict) or rec.get("kind") != RECORD_KIND:
        raise ValueError(f"{path}: not a {RECORD_KIND} record")
    if rec.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema {rec.get('schema')!r}, expected {SCHEMA_VERSION}"
        )
    return rec


class Trajectory:
    """The repo's recorded performance history: every ``BENCH_*.json``
    in creation order, plus the experiments' metrics snapshots."""

    def __init__(self, records: list[dict], paths: list[str] | None = None,
                 metrics_snapshots: dict[str, dict] | None = None,
                 skipped: list[str] | None = None):
        order = sorted(
            range(len(records)),
            key=lambda i: (records[i].get("created_utc", ""),
                           (paths or [""] * len(records))[i]),
        )
        self.records = [records[i] for i in order]
        self.paths = [(paths or [""] * len(records))[i] for i in order]
        self.metrics_snapshots = metrics_snapshots or {}
        self.skipped = skipped or []

    @classmethod
    def load(cls, directory: str = ".",
             results_dir: str | None = None) -> "Trajectory":
        """Load all ``BENCH_*.json`` under ``directory``; when
        ``results_dir`` is given, also fold in the schema-checked
        ``*.metrics.json`` snapshots ``save_tables`` persists there
        (unreadable files are listed in ``.skipped``, not fatal)."""
        records, paths, skipped = [], [], []
        for p in sorted(glob.glob(os.path.join(directory,
                                               f"{BENCH_PREFIX}*.json"))):
            try:
                records.append(load_record(p))
                paths.append(p)
            except (ValueError, OSError, json.JSONDecodeError):
                skipped.append(p)
        snapshots = {}
        if results_dir:
            for p in sorted(glob.glob(os.path.join(results_dir,
                                                   "*.metrics.json"))):
                try:
                    with open(p) as fh:
                        payload = json.load(fh)
                    if (isinstance(payload, dict)
                            and payload.get("schema") == 1
                            and isinstance(payload.get("metrics"), dict)):
                        name = payload.get(
                            "name",
                            os.path.basename(p)[: -len(".metrics.json")],
                        )
                        snapshots[name] = payload["metrics"]
                    else:
                        skipped.append(p)
                except (OSError, json.JSONDecodeError):
                    skipped.append(p)
        return cls(records, paths, snapshots, skipped)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def latest(self) -> dict | None:
        """The most recent record, or None when the store is empty."""
        return self.records[-1] if self.records else None

    def section_names(self) -> list[str]:
        """Union of timed-section names across all records, sorted."""
        names: set[str] = set()
        for r in self.records:
            names.update(r.get("sections", {}))
        return sorted(names)

    def scalar_names(self) -> list[str]:
        """Union of headline-scalar names across all records, sorted."""
        names: set[str] = set()
        for r in self.records:
            names.update(r.get("scalars", {}))
        return sorted(names)

    def series(self, name: str) -> list[float | None]:
        """Per-record section medians, aligned to :attr:`records`
        (None where a record lacks the section)."""
        out: list[float | None] = []
        for r in self.records:
            s = r.get("sections", {}).get(name)
            out.append(s.get("median") if s else None)
        return out

    def scalar_series(self, name: str) -> list[float | None]:
        """Per-record scalar values, aligned to :attr:`records`."""
        return [r.get("scalars", {}).get(name) for r in self.records]

    def baseline(self, name: str, window: int = 5):
        """``(median, mad, count)`` of the section's medians over the
        last ``window`` records *excluding* the latest, or None when no
        usable history exists (first run / new section)."""
        past = [
            v for v in self.series(name)[:-1][-window:] if _finite_positive(v)
        ]
        if not past:
            return None
        med, mad = median_mad(past)
        return med, mad, len(past)


class Regression:
    """One flagged section: the latest median against its baseline."""

    __slots__ = ("name", "latest", "baseline", "mad", "ratio")

    def __init__(self, name: str, latest: float, baseline: float, mad: float):
        self.name = name
        self.latest = latest
        self.baseline = baseline
        self.mad = mad
        self.ratio = latest / baseline

    def __repr__(self) -> str:
        return (f"Regression({self.name}: {self.latest:.4g}s vs "
                f"baseline {self.baseline:.4g}s, x{self.ratio:.2f})")


class PerfCheck:
    """Outcome of one regression pass: what was checked, what flagged,
    and which sections had no baseline yet."""

    __slots__ = ("regressions", "checked", "new_sections", "baseline_runs")

    def __init__(self, regressions: list[Regression], checked: int,
                 new_sections: list[str], baseline_runs: int):
        self.regressions = regressions
        self.checked = checked
        self.new_sections = new_sections
        self.baseline_runs = baseline_runs

    @property
    def ok(self) -> bool:
        """True iff no section regressed."""
        return not self.regressions


class RegressionDetector:
    """Flags sections of the latest record that got slower than the
    rolling baseline allows (see the module docstring for the rule)."""

    def __init__(self, trajectory: Trajectory, window: int = 5,
                 ratio: float = 0.25, mad_k: float = 4.0):
        if window < 1 or ratio < 0 or mad_k < 0:
            raise ValueError("window >= 1, ratio >= 0, mad_k >= 0 required")
        self.trajectory = trajectory
        self.window = window
        self.ratio = ratio
        self.mad_k = mad_k

    def check(self) -> PerfCheck:
        """Compare the latest record's sections against their baselines."""
        records = self.trajectory.records
        if len(records) < 2:
            return PerfCheck([], 0, [], max(0, len(records) - 1))
        latest = records[-1]
        flags: list[Regression] = []
        new: list[str] = []
        checked = 0
        for name, summary in sorted(latest.get("sections", {}).items()):
            value = summary.get("median")
            if not _finite_positive(value):
                continue  # NaN / zero-time guard
            base = self.trajectory.baseline(name, self.window)
            if base is None:
                new.append(name)
                continue
            med, mad, _n = base
            checked += 1
            if value > med + max(self.ratio * med, self.mad_k * mad):
                flags.append(Regression(name, value, med, mad))
        return PerfCheck(flags, checked, new, min(len(records) - 1, self.window))


def trend(values) -> str:
    """Unicode sparkline of a series that may contain gaps (None) --
    gaps are dropped, non-finite values too."""
    from repro.analysis.report import sparkline

    return sparkline(
        [v for v in values
         if isinstance(v, (int, float)) and math.isfinite(v)]
    )


def _pct(latest: float, base: float) -> str:
    return f"{100.0 * (latest - base) / base:+.1f}%"


def render_report(trajectory: Trajectory, window: int = 5) -> str:
    """The markdown performance dashboard: run inventory, per-section
    trend tables with sparklines, scalar trends, and the experiment
    metrics snapshots folded into the trajectory."""
    from repro.analysis.report import Table

    lines = [
        "# Performance trajectory",
        "",
        "*Generated by `repro perf report` -- do not edit by hand.*",
        "",
    ]
    if not trajectory.records:
        lines.append("No `BENCH_*.json` records found -- run "
                     "`repro perf record` or `pytest benchmarks/` first.")
        return "\n".join(lines) + "\n"

    latest = trajectory.latest
    env = latest.get("env", {})
    lines += [
        f"- runs: **{len(trajectory)}** "
        f"({trajectory.records[0].get('created_utc')} -> "
        f"{latest.get('created_utc')})",
        f"- latest env: git `{(env.get('git_sha') or 'unknown')[:12]}`, "
        f"python {env.get('python')}, numpy {env.get('numpy')}, "
        f"{env.get('cpus')} cpus, source `{env.get('source') or '-'}`",
        f"- baseline window: last {window} runs, MAD-thresholded "
        f"(see `repro perf check`)",
        "",
    ]

    t = Table(
        ["section", "runs", "best", "latest median", "baseline",
         "delta", "trend"],
        title="Timed sections (seconds; lower is better)",
    )
    for name in trajectory.section_names():
        series = trajectory.series(name)
        present = [v for v in series if _finite_positive(v)]
        latest_v = series[-1]
        base = trajectory.baseline(name, window)
        t.add_row([
            name,
            len(present),
            round(min(present), 6) if present else None,
            round(latest_v, 6) if latest_v is not None else None,
            round(base[0], 6) if base else None,
            _pct(latest_v, base[0])
            if base and _finite_positive(latest_v) else "-",
            trend(series),
        ])
    lines += [t.render(), ""]

    scalar_names = trajectory.scalar_names()
    if scalar_names:
        t2 = Table(
            ["scalar", "latest", "trend"],
            title="Headline scalars (tracked, not gated)",
        )
        for name in scalar_names:
            series = trajectory.scalar_series(name)
            t2.add_row([name, series[-1], trend(series)])
        lines += [t2.render(), ""]

    if trajectory.metrics_snapshots:
        t3 = Table(
            ["experiment snapshot", "metrics"],
            title="Per-experiment obs snapshots (benchmarks/results/)",
        )
        for name in sorted(trajectory.metrics_snapshots):
            t3.add_row([name, len(trajectory.metrics_snapshots[name])])
        lines += [t3.render(), ""]
    return "\n".join(lines) + "\n"


def run_quick_suite(recorder: BenchRecorder, repeats: int = 3) -> None:
    """The quick suite: the GF(2^m) kernel microbenchmarks at 100k
    elements.  No layer of the repo benchmark (``bench/run.py``) times
    these kernels on their own; every other path is timed there."""
    import numpy as np

    from repro.gf.gf2m import GF2m

    rng = np.random.default_rng(0)
    F = GF2m.get(18)
    a = rng.integers(0, F.order, 100_000)
    b = rng.integers(0, F.order, 100_000)
    nz = rng.integers(1, F.order, 100_000)
    s = recorder.measure("quick.gf_vmul_100k", lambda: F.vmul(a, b),
                         repeats=repeats)
    recorder.scalar("quick.gf_vmul_mops", 0.1 / s["median"])
    recorder.measure("quick.gf_vinv_100k", lambda: F.vinv(nz),
                     repeats=repeats)
