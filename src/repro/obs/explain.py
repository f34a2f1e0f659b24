"""Theory-vs-measured explain driver: fit, check, and render envelopes.

This is the consumer of the bound-accounting ledger
(:mod:`repro.obs.ledger`) and the bound registry
(:class:`repro.core.bounds.BoundRegistry`).  For each conformance
scheme (the six of :data:`repro.conformance.streaming.SCHEME_KEYS`) it

1. runs a **calibration sweep** -- a few request sizes ``N'`` under
   seed A -- and fits the hidden constant of each theorem envelope
   (Theorem 1 rounds, Theorem 6 ``Phi``, Theorem 8 field ops per
   address, balanced-load congestion p95);
2. runs **check** batches at two further ``N'`` sizes under seed B and
   verifies every measured quantity sits inside its fitted envelope;
3. runs a seeded **congestion attack** -- the single-copy baseline's
   placement-inverting collision set (every request stored on one
   module) -- that *must* bust the congestion envelope; a dead canary
   means the envelopes are too loose to flag anything.  The analogous
   module-neighbourhood attack on the paper's scheme stays *within*
   envelope -- the Theorem 4/5 expansion disperses it, which is the
   paper's point -- so the baseline is the honest canary target;
4. renders everything to ``benchmarks/results/explain_report.md``.

Every measured run executes with a bus installed, so the protocol's
``ledger.batch`` events stream to the same :class:`HealthAggregator`
the live watchdog uses; the report records how many arrived.

The report holds counts only (rounds, ``Phi``, retries, field ops,
congestion quantiles), so it is byte-identical for a given seed; wall
time is measured by the repo benchmark (``bench/run.py``).  ``python -m
repro explain --check`` exits non-zero when a check run violates an
envelope or the attack is *not* flagged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import repro.obs as _obs
from repro.core.bounds import (
    ENVELOPE_QUANTITIES,
    BoundRegistry,
    BoundViolation,
    Envelope,
    RunContext,
)
from repro.obs.ledger import Ledger
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import EventBus, HealthAggregator

__all__ = [
    "RunMeasurement",
    "CheckRow",
    "SchemeReport",
    "ExplainResult",
    "run_explain",
    "render_markdown",
    "write_report",
    "DEFAULT_REPORT_PATH",
]

DEFAULT_REPORT_PATH = os.path.join(
    "benchmarks", "results", "explain_report.md"
)

#: N' sweep points as fractions of each scheme's M (the schemes range
#: from M=84 to M=4368, so absolute sizes cannot be shared).
_CAL_FRACS = (0.125, 0.25, 0.5)
_CHECK_FRACS = (0.1875, 0.375)
#: calibration seeds (seed A family) and the disjoint check seed B
_CAL_SEEDS = (11, 12)
_CHECK_SEED = 23
_ATTACK_SEED = 31


def _sweep_sizes(m: int, fracs: tuple[float, ...]) -> list[int]:
    """Distinct N' sizes for a scheme with ``m`` variables."""
    return sorted({max(4, int(m * f)) for f in fracs})


def _dlog_weight(scheme: object) -> int:
    """Steps one discrete log is charged (the paper's scheme pays
    ``n ~ log N`` per dlog; schemes that never touch GF(2^m) keep 1)."""
    inner = getattr(scheme, "scheme", None)
    n = getattr(inner, "n", None)
    return int(n) if n else 1


@dataclass(frozen=True)
class RunMeasurement:
    """Ledger readout of one measured write+read run."""

    ctx: RunContext
    quantities: dict[str, float]
    congestion: dict[str, float]
    counters: dict[str, int]
    gf_ops: dict[str, int]
    batch_events: int


@dataclass(frozen=True)
class CheckRow:
    """One check run with its per-quantity envelope verdicts."""

    measurement: RunMeasurement
    bounds: dict[str, float]
    violations: list[BoundViolation]


@dataclass
class SchemeReport:
    """Everything explain learned about one scheme."""

    key: str
    N: int
    M: int
    copies: int
    envelopes: list[Envelope] = field(default_factory=list)
    calibration: list[RunMeasurement] = field(default_factory=list)
    checks: list[CheckRow] = field(default_factory=list)


@dataclass
class ExplainResult:
    """The full explain run: per-scheme reports plus global verdicts."""

    schemes: list[SchemeReport]
    attack: CheckRow
    attack_flagged: bool
    slack: float
    bus_events: int
    watch_congestion_p95: float | None

    @property
    def check_violations(self) -> list[BoundViolation]:
        """Envelope violations across all *non-attack* check runs."""
        return [v for s in self.schemes for row in s.checks for v in row.violations]

    @property
    def ok(self) -> bool:
        """Acceptance: checks clean and canary alive."""
        return not self.check_violations and self.attack_flagged


def _measure_run(
    scheme: object,
    key: str,
    indices: np.ndarray,
    seed: int,
    bus_sub: object | None,
) -> RunMeasurement:
    """One ledgered write+read batch pair; returns the ledger readout."""
    indices = np.asarray(indices, dtype=np.int64)
    store = scheme.make_store()
    values = np.arange(1, indices.size + 1, dtype=np.int64)
    led = Ledger()
    prev = _obs.set_ledger(led)
    try:
        scheme.write(indices, values, store, time=1, seed=seed)
        scheme.read(indices, store, time=2, seed=seed + 1)
    finally:
        _obs.set_ledger(prev)
    rounds = sum(rec.rounds for rec in led.batches)
    phi = max((rec.phi for rec in led.batches), default=0)
    computed = led.counters.get("addr.computed", 0)
    ops = led.addressing_ops
    weighted = ops.add + ops.mul + ops.exp + ops.dlog * _dlog_weight(scheme)
    addr_field_ops = (weighted / computed) if computed else 0.0
    cong = led.congestion_summary()
    events = len(bus_sub.drain()) if bus_sub is not None else 0
    ctx = RunContext(
        scheme=key,
        N=int(scheme.N),
        M=int(scheme.M),
        n_prime=int(indices.size),
        copies=int(scheme.copies_per_variable),
        majority=int(scheme.read_quorum),
    )
    return RunMeasurement(
        ctx=ctx,
        quantities={
            "rounds": float(rounds),
            "phi": float(phi),
            "addr_field_ops": float(addr_field_ops),
            "congestion_p95": float(cong["p95"] or 0.0),
        },
        congestion={
            "p50": float(cong["p50"] or 0.0),
            "p95": float(cong["p95"] or 0.0),
            "max": float(cong["max"] or 0.0),
        },
        counters=dict(led.counters),
        gf_ops=led.gf.as_dict(),
        batch_events=events,
    )


def _check_row(
    registry: BoundRegistry, meas: RunMeasurement
) -> CheckRow:
    bounds = {}
    for q in ENVELOPE_QUANTITIES:
        env = registry.envelope(meas.ctx.scheme, q)
        if env is not None:
            bounds[q] = env.bound(meas.ctx)
    return CheckRow(
        measurement=meas,
        bounds=bounds,
        violations=registry.check(meas.ctx, meas.quantities),
    )


def run_explain(
    *,
    quick: bool = False,
    slack: float = 1.25,
    scheme_keys: tuple[str, ...] | None = None,
) -> ExplainResult:
    """Calibrate, check, and attack across the scheme suite.

    ``quick`` drops to a single calibration seed (CI's fast path);
    counts stay deterministic either way.  See the module docstring for
    the full procedure.
    """
    from repro.conformance.streaming import SCHEME_KEYS, scheme_by_key

    keys = scheme_keys or SCHEME_KEYS
    cal_seeds = _CAL_SEEDS[:1] if quick else _CAL_SEEDS

    registry = BoundRegistry()
    bus = EventBus()
    sub = bus.subscribe({"ledger.batch"})
    watch = HealthAggregator(MetricsRegistry())
    prev_bus = _obs.set_bus(bus)

    bus_events = 0
    reports: list[SchemeReport] = []
    try:
        for key in keys:
            scheme = scheme_by_key(key)
            rep = SchemeReport(
                key=key,
                N=int(scheme.N),
                M=int(scheme.M),
                copies=int(scheme.copies_per_variable),
            )
            cal_sizes = _sweep_sizes(scheme.M, _CAL_FRACS)
            check_sizes = _sweep_sizes(scheme.M, _CHECK_FRACS)

            calibration: dict[str, list[tuple[RunContext, float]]] = {
                q: [] for q in ENVELOPE_QUANTITIES
            }
            for seed in cal_seeds:
                for size in cal_sizes:
                    idx = scheme.random_request_set(size, seed=seed)
                    meas = _measure_run(scheme, key, idx, seed, sub)
                    rep.calibration.append(meas)
                    for q in ENVELOPE_QUANTITIES:
                        calibration[q].append((meas.ctx, meas.quantities[q]))
                    bus_events += meas.batch_events
            for q in ENVELOPE_QUANTITIES:
                rep.envelopes.append(
                    registry.fit(key, q, calibration[q], slack=slack)
                )

            for size in check_sizes:
                idx = scheme.random_request_set(size, seed=_CHECK_SEED)
                meas = _measure_run(scheme, key, idx, _CHECK_SEED, sub)
                rep.checks.append(_check_row(registry, meas))
                bus_events += meas.batch_events
            reports.append(rep)

        # seeded congestion attack: invert the single-copy placement so
        # every request lands on one module -- must bust the envelope.
        # (The PP neighbourhood attack is NOT used here: expansion
        # disperses it below the envelope, exactly as Theorems 4/5 say.)
        attack_scheme = scheme_by_key("single")
        attack_idx = attack_scheme.adversarial_request_set(16)
        attack_meas = _measure_run(
            attack_scheme, "single", attack_idx, _ATTACK_SEED, sub
        )
        attack = _check_row(registry, attack_meas)
        bus_events += attack_meas.batch_events
    finally:
        _obs.set_bus(prev_bus)

    attack_flagged = any(
        v.quantity == "congestion_p95" for v in attack.violations
    )

    # feed the drained events' aggregate through the watchdog consumer
    # path once, so the live-telemetry wiring is exercised end to end
    for rep in reports:
        for row in rep.checks:
            ev = dict(row.measurement.quantities)
            watch.consume(
                {
                    "name": "ledger.batch",
                    "rounds": int(ev["rounds"]),
                    "requests": row.measurement.ctx.n_prime,
                    "retries": row.measurement.counters.get(
                        "protocol.retries", 0
                    ),
                    "congestion_p95": ev["congestion_p95"],
                }
            )
    snap = watch.registry.histogram("watch.congestion_p95").snapshot()
    return ExplainResult(
        schemes=reports,
        attack=attack,
        attack_flagged=attack_flagged,
        slack=slack,
        bus_events=bus_events,
        watch_congestion_p95=snap.get("p95"),
    )


# ---------------------------------------------------------------------------
# rendering


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e6:
        return str(int(x))
    return f"{x:.3g}"


def render_markdown(result: ExplainResult) -> str:
    """The committed ``explain_report.md`` body."""
    out: list[str] = []
    w = out.append
    w("# Cost attribution: theory vs measured")
    w("")
    w(
        "Envelopes `measured <= c * shape(N, N')` with theorem-fixed "
        f"shapes and constants fitted on a calibration sweep "
        f"(slack {result.slack:g}); check runs use a disjoint seed. "
        "Counts are deterministic."
    )
    w("")

    for rep in result.schemes:
        w(
            f"## {rep.key} (N={rep.N}, M={rep.M}, r={rep.copies})"
        )
        w("")
        w("| N' | quantity | theorem | measured | envelope | verdict |")
        w("|---:|---|---|---:|---:|---|")
        for row in rep.checks:
            ctx = row.measurement.ctx
            bad = {v.quantity for v in row.violations}
            for env in rep.envelopes:
                q = env.quantity
                verdict = "**VIOLATED**" if q in bad else "within"
                w(
                    f"| {ctx.n_prime} | {q} | {env.theorem} "
                    f"| {_fmt(row.measurement.quantities[q])} "
                    f"| {_fmt(row.bounds.get(q, float('nan')))} "
                    f"| {verdict} |"
                )
        w("")

    w("## Congestion heat (per-step distribution, check runs)")
    w("")
    w("| scheme | N' | p50 | p95 | max |")
    w("|---|---:|---:|---:|---:|")
    for rep in result.schemes:
        for row in rep.checks:
            c = row.measurement.congestion
            w(
                f"| {rep.key} | {row.measurement.ctx.n_prime} "
                f"| {_fmt(c['p50'])} | {_fmt(c['p95'])} | {_fmt(c['max'])} |"
            )
    a = result.attack.measurement
    w(
        f"| {a.ctx.scheme} (attack) | {a.ctx.n_prime} | {_fmt(a.congestion['p50'])} "
        f"| {_fmt(a.congestion['p95'])} | {_fmt(a.congestion['max'])} |"
    )
    w("")

    w("## Seeded congestion attack (canary)")
    w("")
    if result.attack_flagged:
        v = next(
            v for v in result.attack.violations
            if v.quantity == "congestion_p95"
        )
        w(f"Flagged as expected: {v}")
    else:
        w(
            "**CANARY DEAD**: the module-neighbourhood attack stayed "
            "inside the congestion envelope -- envelopes too loose."
        )
    other = [
        str(v) for v in result.attack.violations
        if v.quantity != "congestion_p95"
    ]
    if other:
        w("")
        w("Collateral envelope hits under attack load:")
        for line in other:
            w(f"- {line}")
    w("")

    w("## Live telemetry")
    w("")
    w(
        f"- `ledger.batch` bus events observed: {result.bus_events}"
    )
    if result.watch_congestion_p95 is not None:
        w(
            "- watchdog aggregate `watch.congestion_p95` p95: "
            f"{result.watch_congestion_p95:.3g}"
        )
    w("")

    status = "PASS" if result.ok else "FAIL"
    nviol = len(result.check_violations)
    w("## Verdict")
    w("")
    w(
        f"**{status}** -- {nviol} check violation(s), attack "
        f"{'flagged' if result.attack_flagged else 'MISSED'}."
    )
    w("")
    return "\n".join(out)


def write_report(result: ExplainResult, path: str = DEFAULT_REPORT_PATH) -> str:
    """Render and write the markdown report; returns the path."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(render_markdown(result))
    return path
