"""Command-line interface: inspect schemes and run accesses from a shell.

Subcommands
-----------
``info``      structural parameters of a (q, n) instance;
``locate``    physical (module, slot) addresses of variables;
``access``    run a protocol batch over a generated workload and report
              the cost (``--trace-out FILE`` records a JSONL trace);
``sweep``     Phi vs N across n, the Theorem-6 series;
``expansion`` measure |Gamma(S)| vs the Theorem-4 bound;
``metrics``   run a batch with metrics collection on and print the JSON
              snapshot of the registry;
``perf``      the performance trajectory (:mod:`repro.obs.perf`):
              ``record`` times the GF(2^m) kernels and writes a
              ``BENCH_*.json`` run record, ``report`` renders the trend
              dashboard, ``check`` gates on regressions vs the rolling
              baseline (non-zero exit when a hot path got slower);
``faults``    fault-injection campaigns (:mod:`repro.faults.campaign`):
              ``campaign`` sweeps the fault models and the q/2 threshold
              ladders and writes ``faults_campaign.{md,json}`` (non-zero
              exit on any semantic violation below the threshold),
              ``report`` re-renders a stored campaign;
``conform``   trace-based conformance (:mod:`repro.conformance`):
              ``fuzz`` replays one seeded workload through every scheme
              plus a serial dict oracle, checks every recorded trace,
              runs the stale-majority canary, and writes
              ``conformance_fuzz.{md,json}`` (non-zero exit on any
              violation or a blind canary), ``check`` runs the
              consistency checker over stored JSONL traces, ``report``
              re-renders a stored fuzz report;
``watch``     live watchdog (:mod:`repro.conformance.streaming`):
              ``fuzz`` runs a workload with the online windowed checker
              and health telemetry attached to the event bus, printing
              rolling snapshots and writing ``watch_fuzz.json``
              (non-zero exit on violations, dropped events, or a busted
              ``--state-budget`` / ``--rss-budget-mb``), ``attack``
              runs the stale-majority online canary, which must flag
              the q/2+1 rollback *mid-run* and stay silent on the
              <= q/2 control, writing ``watch_attack.json``;
``lint``      determinism static analysis (:mod:`repro.lint`): runs the
              D/F AST ruleset over ``src/repro`` against the
              committed ``.lint-baseline.json`` (non-zero exit on any
              new finding or stale baseline entry); ``--format
              json|md`` for machine/report output, ``--list-rules``
              for the rule table;
``serve``     served mode (:mod:`repro.service`): run the asyncio KV
              front end with a fleet of concurrent client-session
              coroutines on the deterministic virtual-clock loop,
              live watchdog attached; prints tail latency and health
              (non-zero exit on conformance violations or drops);
``load``      closed-loop load generator (:mod:`repro.service.loadgen`):
              drive millions of simulated clients against the sharded
              service core in one closed loop, with seeded key mixes
              (``uniform``/``zipf``/``hotkey``), optional fault
              injection (``--fault crash|stale``), the degraded-mode
              admissibility oracle, and ``BENCH_*.json`` tail-latency
              output via ``--bench-out``.

Examples::

    python -m repro info -q 2 -n 5
    python -m repro locate -q 2 -n 5 0 17 4242
    python -m repro access -q 2 -n 7 --count 4096 --workload strided --op count
    python -m repro access -q 2 -n 5 --count 512 --trace-out trace.jsonl
    python -m repro metrics -q 2 -n 5 --count 512
    python -m repro sweep --max-n 7
    python -m repro expansion -q 2 -n 5 --sizes 16 64 256
    python -m repro perf record --repeats 3
    python -m repro perf report
    python -m repro perf check --window 5 --ratio 0.25
    python -m repro faults campaign --qs 2 4 8 --seed 0
    python -m repro faults report
    python -m repro conform fuzz --seed 0 --ops 2000
    python -m repro conform check trace.jsonl
    python -m repro conform report
    python -m repro watch fuzz --ops 100000 --scheme pp2 --state-budget 200000
    python -m repro watch attack --seed 0
    python -m repro serve --clients 200 --ops-per-client 4 --seed 0
    python -m repro load --clients 1000000 --mix zipf --bench-out .
    python -m repro load --clients 100000 --fault stale --oracle
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.analysis.report import Table
from repro.core import engine
from repro.core.bounds import expansion_lower_bound, phi_bound
from repro.core.scheme import PPScheme

__all__ = ["main", "build_parser"]

#: mirror of :data:`repro.conformance.streaming.SCHEME_KEYS` -- kept as a
#: literal so building the parser does not import the conformance stack
_WATCH_SCHEMES = ("single", "mv", "uw", "grid", "pp2", "pp4")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and docs generation)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Pietracaprina-Preparata deterministic shared-memory scheme",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_qn(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("-q", type=int, default=2, help="copies = q+1 (power of 2)")
        sp.add_argument("-n", type=int, default=5, help="extension degree (>= 3)")

    sp = sub.add_parser("info", help="structural parameters")
    add_qn(sp)

    sp = sub.add_parser("locate", help="physical copy addresses")
    add_qn(sp)
    sp.add_argument("indices", type=int, nargs="+", help="variable indices")

    def add_batch(sp: argparse.ArgumentParser) -> None:
        add_qn(sp)
        sp.add_argument("--count", type=int, default=1024,
                        help="distinct requests")
        sp.add_argument(
            "--workload",
            choices=["uniform", "strided", "hotspot", "neighborhood"],
            default="uniform",
        )
        sp.add_argument("--op", choices=["count", "read", "write"],
                        default="count")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--arbitration",
                        choices=["lowest", "random", "rotating"],
                        default="lowest")

    sp = sub.add_parser("access", help="run one protocol batch")
    add_batch(sp)
    sp.add_argument("--trace-out", metavar="FILE", default=None,
                    help="record a JSONL trace of the run to FILE")

    sp = sub.add_parser(
        "metrics",
        help="run one protocol batch with metrics on; print JSON snapshot",
    )
    add_batch(sp)

    sp = sub.add_parser("sweep", help="Phi vs N (Theorem 6 series)")
    sp.add_argument("--max-n", type=int, default=7, help="largest n (odd, >= 3)")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("expansion", help="|Gamma(S)| vs Theorem-4 bound")
    add_qn(sp)
    sp.add_argument("--sizes", type=int, nargs="+", default=[16, 64, 256])
    sp.add_argument("--trials", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser(
        "perf", help="benchmark telemetry: record / report / check"
    )
    psub = sp.add_subparsers(dest="verb", required=True)

    def add_store(vp):
        vp.add_argument("--dir", default=".", metavar="DIR",
                        help="directory holding the BENCH_*.json records")
        vp.add_argument("--window", type=int, default=5,
                        help="rolling-baseline window (runs)")

    vp = psub.add_parser(
        "record", help="time the GF(2^m) kernels, write a BENCH_*.json"
    )
    vp.add_argument("--out", default=".", metavar="DIR",
                    help="directory to write the run record into")
    vp.add_argument("--repeats", type=int, default=3,
                    help="recorded repetitions per timed section")

    vp = psub.add_parser(
        "report", help="render the trend dashboard (sparklines per metric)"
    )
    add_store(vp)
    vp.add_argument(
        "--md-out", metavar="FILE",
        default=os.path.join("benchmarks", "results", "perf_dashboard.md"),
        help="markdown dashboard path ('-' to skip writing)",
    )

    vp = psub.add_parser(
        "check", help="regression gate: non-zero exit on a flagged slowdown"
    )
    add_store(vp)
    vp.add_argument("--ratio", type=float, default=0.25,
                    help="relative slowdown tolerated before flagging")
    vp.add_argument("--mad-k", type=float, default=4.0,
                    help="MAD multiples of baseline noise tolerated")
    vp.add_argument("--soft", action="store_true",
                    help="report regressions but exit 0 (CI bootstrap)")

    sp = sub.add_parser(
        "faults", help="fault-injection campaigns: campaign / report"
    )
    fsub = sp.add_subparsers(dest="verb", required=True)

    vp = fsub.add_parser(
        "campaign",
        help="sweep fault models and the q/2 threshold ladders; "
        "non-zero exit on violations",
    )
    vp.add_argument("--qs", type=int, nargs="+", default=[2, 4, 8],
                    help="quorum degrees q to test (even)")
    vp.add_argument("--intensities", type=float, nargs="+",
                    default=[0.0, 0.05, 0.15],
                    help="fault intensities for the model sweep")
    vp.add_argument("--models", nargs="+", default=None,
                    metavar="NAME", help="fault models (default: all)")
    vp.add_argument("--victims", type=int, default=12,
                    help="disjoint victims per threshold rung")
    vp.add_argument("--requests", type=int, default=None,
                    help="batch size (default: scheme-sized)")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument(
        "--out", metavar="DIR",
        default=os.path.join("benchmarks", "results"),
        help="report directory ('-' to skip writing)",
    )

    vp = fsub.add_parser(
        "report", help="re-render a stored campaign report"
    )
    vp.add_argument(
        "--dir", metavar="DIR",
        default=os.path.join("benchmarks", "results"),
        help="directory holding faults_campaign.json",
    )

    sp = sub.add_parser(
        "conform", help="trace-based conformance: fuzz / check / report"
    )
    csub = sp.add_subparsers(dest="verb", required=True)

    vp = csub.add_parser(
        "fuzz",
        help="differential fuzz all schemes vs a serial oracle; "
        "non-zero exit on violations",
    )
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--ops", type=int, default=2000,
                    help="minimum single operations in the workload")
    vp.add_argument("--max-batch", type=int, default=32,
                    help="largest batch the plan may issue")
    vp.add_argument("--trace-dir", metavar="DIR", default=None,
                    help="also write each scheme's JSONL trace here")
    vp.add_argument("--no-canary", action="store_true",
                    help="skip the stale-majority checker self-test")
    vp.add_argument("--engine", choices=engine.ENGINES,
                    default="vector",
                    help="protocol engine every scheme runs under")
    vp.add_argument(
        "--out", metavar="DIR",
        default=os.path.join("benchmarks", "results"),
        help="report directory ('-' to skip writing)",
    )

    vp = csub.add_parser(
        "check",
        help="run the consistency checker over stored JSONL trace files",
    )
    vp.add_argument("traces", nargs="+", metavar="FILE",
                    help="JSONL trace files (any tracer's output)")
    vp.add_argument("--max-violations", type=int, default=100,
                    help="violations listed per report before truncating")

    vp = csub.add_parser(
        "report", help="re-render a stored conformance fuzz report"
    )
    vp.add_argument(
        "--dir", metavar="DIR",
        default=os.path.join("benchmarks", "results"),
        help="directory holding conformance_fuzz.json",
    )

    sp = sub.add_parser(
        "watch", help="live watchdog: streaming conformance + health"
    )
    wsub = sp.add_subparsers(dest="verb", required=True)

    vp = wsub.add_parser(
        "fuzz",
        help="run a workload under the online watchdog; non-zero exit "
        "on violations, event drops, or a busted memory budget",
    )
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--ops", type=int, default=2000,
                    help="minimum single operations in the workload")
    vp.add_argument("--scheme", choices=_WATCH_SCHEMES, default="pp2",
                    help="memory scheme under watch")
    vp.add_argument("--window", type=int, default=8,
                    help="rounds the streaming checker keeps open")
    vp.add_argument("--max-batch", type=int, default=32,
                    help="largest batch the plan may issue")
    vp.add_argument("--snapshot-every", type=int, default=50,
                    help="health snapshot cadence, in batches")
    vp.add_argument("--state-budget", type=int, default=None,
                    help="fail if peak checker state exceeds this many "
                    "entries (bounded-memory assertion)")
    vp.add_argument("--rss-budget-mb", type=int, default=None,
                    help="fail if process peak RSS exceeds this many MiB")
    vp.add_argument("--engine", choices=engine.ENGINES,
                    default="vector", help="protocol engine under watch")
    vp.add_argument(
        "--out", metavar="DIR",
        default=os.path.join("benchmarks", "results"),
        help="directory for watch_fuzz.json ('-' to skip writing)",
    )

    vp = wsub.add_parser(
        "attack",
        help="stale-majority online canary: the watchdog must flag the "
        "q/2+1 attack mid-run and stay silent on the <= q/2 control",
    )
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--victims", type=int, default=3)
    vp.add_argument("--window", type=int, default=8,
                    help="rounds the streaming checker keeps open")
    vp.add_argument("--engine", choices=engine.ENGINES,
                    default="vector",
                    help="protocol engine the attack runs under")
    vp.add_argument(
        "--out", metavar="DIR",
        default=os.path.join("benchmarks", "results"),
        help="directory for watch_attack.json ('-' to skip writing)",
    )

    sp = sub.add_parser(
        "explain",
        help="theory-vs-measured cost attribution: fit theorem "
        "envelopes, check the scheme suite, render the ledger report",
    )
    sp.add_argument(
        "--check", action="store_true",
        help="exit non-zero on envelope violation or dead attack canary",
    )
    sp.add_argument("--quick", action="store_true",
                    help="single calibration seed (CI fast path)")
    sp.add_argument("--slack", type=float, default=1.25,
                    help="envelope-fit widening factor")
    sp.add_argument(
        "--out", metavar="PATH", default=None,
        help="markdown report path ('-' to skip writing; default: "
        "benchmarks/results/explain_report.md for a full run, no file "
        "for --quick, so a quick run never overwrites the full report)",
    )

    sp = sub.add_parser("verify", help="run the instance self-checks")
    add_qn(sp)
    sp.add_argument("--level", choices=["quick", "standard", "full"],
                    default="quick")
    sp.add_argument("--seed", type=int, default=0)

    def add_service(sp):
        sp.add_argument("--shards", type=int, default=2,
                        help="worker shards (independent schemes)")
        add_qn(sp)
        sp.add_argument("--round-capacity", type=int, default=1024,
                        help="requests admitted per PRAM round")
        sp.add_argument("--max-pending", type=int, default=4096,
                        help="admission queue depth before backpressure")
        sp.add_argument("--engine", choices=engine.ENGINES,
                        default="vector", help="protocol engine")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser(
        "serve",
        help="run the asyncio KV service with concurrent client "
        "sessions on the deterministic virtual-clock loop",
    )
    add_service(sp)
    sp.add_argument("--clients", type=int, default=100,
                    help="concurrent session coroutines")
    sp.add_argument("--ops-per-client", type=int, default=4,
                    help="requests each session issues")
    sp.add_argument("--keyspace", type=int, default=1024,
                    help="distinct keys the fleet draws from")
    sp.add_argument("--mix", choices=["uniform", "zipf", "hotkey"],
                    default="uniform", help="key popularity mix")
    sp.add_argument("--pipeline-depth", type=int, default=1,
                    help="requests a session may overlap across rounds")
    sp.add_argument("--jitter", type=float, default=0.0,
                    help="seeded virtual-time jitter between a "
                    "session's requests (0 = lockstep rounds; > 0 "
                    "spreads arrivals across rounds)")

    sp = sub.add_parser(
        "load",
        help="closed-loop load generator over the sharded service core; "
        "non-zero exit on health-bar failure",
    )
    add_service(sp)
    sp.add_argument("--clients", type=int, default=100_000,
                    help="simulated closed-loop clients")
    sp.add_argument("--ops-per-client", type=int, default=2,
                    help="requests per client")
    sp.add_argument("--keyspace", type=int, default=65536,
                    help="distinct keys the fleet draws from")
    sp.add_argument("--mix", choices=["uniform", "zipf", "hotkey"],
                    default="uniform", help="key popularity mix")
    sp.add_argument("--get-fraction", type=float, default=0.5,
                    help="fraction of ops that are gets")
    sp.add_argument("--delete-fraction", type=float, default=0.02,
                    help="fraction of ops that are deletes")
    sp.add_argument("--fault", choices=["none", "crash", "stale"],
                    default="none", help="fault timeline to run under")
    sp.add_argument("--crash-rate", type=float, default=0.002,
                    help="per-round module crash probability "
                    "(--fault crash)")
    sp.add_argument("--repair-lag", type=int, default=3,
                    help="rounds a crashed module stays down")
    sp.add_argument("--attack-round", type=int, default=None,
                    help="round to mount the stale-majority attack "
                    "(--fault stale; default: 40%% through the run)")
    sp.add_argument("--victims", type=int, default=3,
                    help="keys the stale attack poisons")
    sp.add_argument("--heal-after", type=int, default=8,
                    help="rounds after detection before healing")
    sp.add_argument("--oracle", action="store_true",
                    help="replay every response through the "
                    "admissibility oracle (degraded-mode bar)")
    sp.add_argument("--bench-out", metavar="DIR", default=None,
                    help="also write a BENCH_*.json run record here")
    sp.add_argument("--json-out", metavar="FILE", default=None,
                    help="write the full load report as JSON")

    sp = sub.add_parser(
        "lint",
        help="determinism static analysis (rules D1-F4); "
        "non-zero exit on new findings",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(sp)
    return p


def _cmd_info(args) -> int:
    s = PPScheme(args.q, args.n)
    t = Table(["parameter", "value"], title=f"PPScheme(q={args.q}, n={args.n})")
    for k, v in s.describe().items():
        t.add_row([k, v])
    t.print()
    return 0


def _cmd_locate(args) -> int:
    s = PPScheme(args.q, args.n)
    t = Table(
        ["variable", "copy", "module", "slot"],
        title=f"physical addresses (N={s.N} modules x {s.module_capacity} slots)",
    )
    for i in args.indices:
        if not 0 <= i < s.M:
            print(f"error: variable {i} out of [0, {s.M})", file=sys.stderr)
            return 2
        for j, (u, k) in enumerate(s.locate(i)):
            t.add_row([i, j, u, k])
    t.print()
    return 0


def _make_workload(s: PPScheme, args) -> np.ndarray:
    from repro.workloads.adversarial import pp_module_neighborhood_set
    from repro.workloads.generators import hotspot_blocks, random_distinct, strided

    if args.workload == "uniform":
        return random_distinct(s.M, args.count, seed=args.seed)
    if args.workload == "strided":
        stride = 7
        while s.M % stride == 0:
            stride += 2
        return strided(s.M, args.count, stride=stride)
    if args.workload == "hotspot":
        return hotspot_blocks(
            s.M, args.count, block=max(64, args.count // 2), n_blocks=4,
            seed=args.seed,
        )
    return pp_module_neighborhood_set(s, args.count)


def _run_batch(args):
    """Build the scheme, generate the workload, and run one batch
    (shared by ``access`` and ``metrics``); returns (scheme, idx, result)
    or an int error code."""
    s = PPScheme(args.q, args.n, arbitration=args.arbitration)
    if args.count > min(s.M, s.N):
        print(
            f"error: count must be <= min(M, N) = {min(s.M, s.N)}", file=sys.stderr
        )
        return 2
    idx = _make_workload(s, args)
    kwargs = {}
    if args.op in ("read", "write"):
        store = s.make_store()
        if args.op == "read":
            s.write(idx, values=idx, store=store, time=1)
        kwargs = {"store": store, "time": 2}
        if args.op == "write":
            kwargs["values"] = idx
    return s, idx, s.access(idx, op=args.op, **kwargs)


def _cmd_access(args) -> int:
    from repro import obs

    tracer = None
    if args.trace_out:
        tracer = obs.RecordingTracer()
        prev = obs.set_tracer(tracer)
    try:
        got = _run_batch(args)
    finally:
        if tracer is not None:
            obs.set_tracer(prev)
    if isinstance(got, int):
        return got
    s, idx, res = got
    if tracer is not None:
        n_events = tracer.write_jsonl(args.trace_out)
        print(f"trace: {n_events} events -> {args.trace_out}", file=sys.stderr)
    t = Table(["metric", "value"], title=f"{args.op} of {len(idx)} variables")
    t.add_row(["phases", len(res.phases)])
    t.add_row(["iterations/phase", str(res.iterations_per_phase)])
    t.add_row(["Phi (max)", res.max_phase_iterations])
    t.add_row(["Theorem-6 shape", round(phi_bound(len(idx), s.q), 1)])
    t.add_row(["total iterations", res.total_iterations])
    t.add_row(["modeled MPC steps", res.modeled_steps(s.N)])
    t.add_row(["copies touched", res.mpc_stats.served])
    t.add_row(["max module congestion", res.mpc_stats.max_congestion])
    t.print()
    return 0


def _cmd_metrics(args) -> int:
    """Run one batch with metrics collection on; print the JSON snapshot
    (only JSON goes to stdout, so the output is pipeable)."""
    from repro import obs

    was_on = obs.metrics_enabled()
    obs.enable_metrics()
    obs.metrics().reset()
    try:
        got = _run_batch(args)
    finally:
        if not was_on:
            obs.disable_metrics()
    if isinstance(got, int):
        return got
    print(obs.metrics().to_json())
    return 0


def _perf_record(args) -> int:
    from repro.obs.perf import BenchRecorder, run_quick_suite

    rec = BenchRecorder(source="quick-suite")
    run_quick_suite(rec, repeats=args.repeats)
    path = rec.write(args.out)
    print(f"run record -> {path}")
    return 0


def _perf_report(args) -> int:
    from repro.obs.perf import Trajectory, render_report

    results_dir = os.path.join(args.dir, "benchmarks", "results")
    traj = Trajectory.load(
        args.dir,
        results_dir=results_dir if os.path.isdir(results_dir) else None,
    )
    text = render_report(traj, window=args.window)
    print(text)
    if args.md_out != "-":
        os.makedirs(os.path.dirname(args.md_out) or ".", exist_ok=True)
        with open(args.md_out, "w") as fh:
            fh.write(text)
        print(f"dashboard -> {args.md_out}", file=sys.stderr)
    for p in traj.skipped:
        print(f"warning: skipped unreadable record {p}", file=sys.stderr)
    return 0


def _perf_check(args) -> int:
    from repro.obs.perf import RegressionDetector, Trajectory

    traj = Trajectory.load(args.dir)
    if len(traj) == 0:
        print(
            "perf check: no baseline yet (no BENCH_*.json run records in "
            f"{args.dir}) -- run 'repro perf record' to record this "
            "machine's baseline; nothing to gate, ok"
        )
        return 0
    det = RegressionDetector(
        traj, window=args.window, ratio=args.ratio, mad_k=args.mad_k
    )
    res = det.check()
    if len(traj) < 2:
        print(f"perf check: {len(traj)} run(s) recorded, no baseline yet -- ok")
        return 0
    t = Table(
        ["section", "latest", "baseline", "x", "verdict"],
        title=f"perf check -- {res.checked} sections vs last "
        f"{res.baseline_runs} run(s)",
    )
    flagged = {r.name: r for r in res.regressions}
    latest = traj.latest
    for name in sorted(latest.get("sections", {})):
        r = flagged.get(name)
        base = traj.baseline(name, args.window)
        summary = latest["sections"][name]
        t.add_row([
            name,
            round(summary.get("median", float("nan")), 6),
            round(base[0], 6) if base else None,
            round(r.ratio, 2) if r
            else (round(summary["median"] / base[0], 2)
                  if base and base[0] else None),
            "REGRESSION" if r else ("new" if base is None else "ok"),
        ])
    t.print()
    if res.regressions:
        print(
            f"\n{len(res.regressions)} regression(s) beyond "
            f"baseline + max({args.ratio:.0%}, {args.mad_k:g} MAD)"
        )
        return 0 if args.soft else 1
    print("\nno regressions")
    return 0


def _cmd_perf(args) -> int:
    return {
        "record": _perf_record,
        "report": _perf_report,
        "check": _perf_check,
    }[args.verb](args)


def _faults_campaign(args) -> int:
    from repro.faults.campaign import run_campaign, render_markdown, write_report
    from repro.faults.models import make_model

    models = (
        [make_model(name) for name in args.models]
        if args.models is not None
        else None
    )
    result = run_campaign(
        qs=tuple(args.qs),
        intensities=tuple(args.intensities),
        models=models,
        n_victims=args.victims,
        n_requests=args.requests,
        seed=args.seed,
    )
    print(render_markdown(result))
    if args.out != "-":
        md_path, json_path = write_report(result, args.out)
        print(f"report -> {md_path}, {json_path}", file=sys.stderr)
    return 0 if result.ok else 1


def _faults_report(args) -> int:
    import json

    from repro.faults.campaign import (
        REPORT_BASENAME,
        CampaignResult,
        render_markdown,
    )

    path = os.path.join(args.dir, REPORT_BASENAME + ".json")
    with open(path) as fh:
        result = CampaignResult.from_dict(json.load(fh))
    print(render_markdown(result))
    return 0 if result.ok else 1


def _cmd_faults(args) -> int:
    return {
        "campaign": _faults_campaign,
        "report": _faults_report,
    }[args.verb](args)


def _conform_fuzz(args) -> int:
    from repro.conformance.differential import (
        render_markdown,
        run_fuzz,
        stale_majority_canary,
        write_report,
    )

    result = run_fuzz(
        seed=args.seed,
        total_ops=args.ops,
        trace_dir=args.trace_dir,
        max_batch=args.max_batch,
    )
    print(render_markdown(result))
    ok = result.ok
    if not args.no_canary:
        canary = stale_majority_canary(seed=args.seed)
        verdict = "DETECTED" if canary.detected else "MISSED"
        print(
            f"\nStale-majority canary: {verdict} "
            f"({canary.silent_wrong_reads} silently-wrong read(s), "
            f"{canary.report.n_violations} violation(s) flagged)"
        )
        if not canary.detected:
            for v in canary.report.violations:
                print(f"  {v.describe()}", file=sys.stderr)
        ok = ok and canary.detected
    if args.out != "-":
        md_path, json_path = write_report(result, args.out)
        print(f"report -> {md_path}, {json_path}", file=sys.stderr)
    return 0 if ok else 1


def _conform_check(args) -> int:
    from repro.conformance.checker import ConsistencyChecker
    from repro.obs.trace import read_jsonl

    checker = ConsistencyChecker(max_violations=args.max_violations)
    failed = 0
    for path in args.traces:
        rep = checker.check_events(read_jsonl(path))
        print(f"## {path}\n\n{rep.render()}\n")
        if not rep.ok:
            failed += 1
    if failed:
        print(f"{failed} of {len(args.traces)} trace(s) inconsistent",
              file=sys.stderr)
    return 0 if not failed else 1


def _conform_report(args) -> int:
    import json

    from repro.conformance.differential import (
        REPORT_BASENAME,
        FuzzResult,
        render_markdown,
    )

    path = os.path.join(args.dir, REPORT_BASENAME + ".json")
    with open(path) as fh:
        result = FuzzResult.from_dict(json.load(fh))
    print(render_markdown(result))
    return 0 if result.ok else 1


def _cmd_conform(args) -> int:
    return {
        "fuzz": _conform_fuzz,
        "check": _conform_check,
        "report": _conform_report,
    }[args.verb](args)


def _peak_rss_mb() -> float:
    """Process peak RSS in MiB (ru_maxrss is KiB on Linux)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_watch_json(
    out_dir: str, basename: str, payload: dict, compress: bool = False
) -> None:
    """Write a run record; ``compress=True`` gzips to ``<name>.gz``.

    Raw watch records are working artifacts, not documentation -- they
    are gitignored (only the rendered ``watchdog_report.md`` is
    committed), and the fuzz record is compressed because its snapshot
    stream dominated the repo's worktree otherwise.
    """
    import gzip
    import json

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, basename)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if compress:
        path += ".gz"
        # mtime=0 keeps the archive byte-stable for identical payloads
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(text.encode())
    else:
        with open(path, "w") as fh:
            fh.write(text)
    print(f"report -> {path}", file=sys.stderr)


#: snapshot rows kept in the persisted fuzz record (evenly subsampled;
#: the rendered report shows at most 20 anyway)
_MAX_SAVED_SNAPSHOTS = 64


def _watch_fuzz(args) -> int:
    from repro.conformance.streaming import stream_fuzz

    def progress(snap: object) -> None:
        print(
            f"  round {snap.round:>6}  lag {snap.checker_lag:>3}  "
            f"state {snap.state_size:>7}  violations {snap.violations}"
        )

    print(
        f"watch fuzz: scheme={args.scheme} ops>={args.ops} "
        f"seed={args.seed} window={args.window} engine={args.engine}"
    )
    result = stream_fuzz(
        scheme=args.scheme,
        total_ops=args.ops,
        seed=args.seed,
        window=args.window,
        max_batch=args.max_batch,
        snapshot_every=args.snapshot_every,
        on_snapshot=progress,
    )
    rss_mb = _peak_rss_mb()
    ok = result.ok
    print(
        f"{result.events} events over {result.rounds} rounds; "
        f"peak checker state {result.peak_state} entries, "
        f"{result.events_dropped} dropped, "
        f"{result.report.n_violations} violation(s); "
        f"peak RSS {rss_mb:.0f} MiB"
    )
    for v in result.report.violations:
        print(f"  {v.describe()}", file=sys.stderr)
    if args.state_budget is not None and result.peak_state > args.state_budget:
        print(
            f"state budget busted: peak {result.peak_state} > "
            f"{args.state_budget} entries",
            file=sys.stderr,
        )
        ok = False
    if args.rss_budget_mb is not None and rss_mb > args.rss_budget_mb:
        print(
            f"RSS budget busted: peak {rss_mb:.0f} MiB > "
            f"{args.rss_budget_mb} MiB",
            file=sys.stderr,
        )
        ok = False
    if args.out != "-":
        payload = result.to_dict()
        snaps = payload.get("snapshots", [])
        if len(snaps) > _MAX_SAVED_SNAPSHOTS:
            step = (len(snaps) - 1) / (_MAX_SAVED_SNAPSHOTS - 1)
            picks = sorted(
                {round(i * step) for i in range(_MAX_SAVED_SNAPSHOTS)}
                | {len(snaps) - 1}
            )
            payload["snapshots"] = [snaps[i] for i in picks]
        payload["snapshots_total"] = len(snaps)
        payload["peak_rss_mb"] = round(rss_mb, 1)
        payload["state_budget"] = args.state_budget
        payload["rss_budget_mb"] = args.rss_budget_mb
        payload["ok"] = bool(ok)
        _write_watch_json(args.out, "watch_fuzz.json", payload, compress=True)
    print("watchdog: " + ("clean" if ok else "FAILED"))
    return 0 if ok else 1


def _watch_attack(args) -> int:
    from repro.conformance.streaming import run_watchdog_canary

    result = run_watchdog_canary(
        seed=args.seed, n_victims=args.victims, window=args.window
    )
    verdict = "DETECTED ONLINE" if result.detected_online else "MISSED"
    print(
        f"stale-majority attack: {verdict} "
        f"({result.silent_wrong_reads} silently-wrong read(s) flagged at "
        f"round {result.detected_at_round} of {result.last_round})"
    )
    ctrl = "clean" if result.control_clean else "NOT CLEAN"
    print(
        f"<= q/2 control: {ctrl} ({result.control_violations} violation(s), "
        f"{result.control_degraded} degraded, {result.control_lost} lost)"
    )
    if not result.ok:
        for v in result.report.violations:
            print(f"  {v.describe()}", file=sys.stderr)
    if args.out != "-":
        _write_watch_json(args.out, "watch_attack.json", result.to_dict())
    return 0 if result.ok else 1


def _cmd_watch(args) -> int:
    return {
        "fuzz": _watch_fuzz,
        "attack": _watch_attack,
    }[args.verb](args)


def _cmd_sweep(args) -> int:
    t = Table(
        ["n", "N", "Phi", "bound shape", "total iterations"],
        title="Phi vs N, full random load (Theorem 6)",
    )
    for n in range(3, args.max_n + 1, 2):
        s = PPScheme(2, n)
        idx = s.random_request_set(min(s.N, s.M), seed=args.seed)
        res = s.access(idx, op="count")
        t.add_row([n, s.N, res.max_phase_iterations,
                   round(phi_bound(s.N, 2), 1), res.total_iterations])
    t.print()
    return 0


def _cmd_expansion(args) -> int:
    s = PPScheme(args.q, args.n)
    rng = np.random.default_rng(args.seed)
    t = Table(
        ["|S|", "min |Gamma(S)|", "Theorem-4 bound", "ratio"],
        title=f"expansion profile (q={args.q}, n={args.n})",
    )
    for size in args.sizes:
        if size > s.M:
            continue
        best = None
        for _ in range(args.trials):
            mats = s.graph.random_variable_matrices(size, rng)
            got = int(np.unique(s.graph.vgamma_variables(mats)).size)
            best = got if best is None else min(best, got)
        bound = expansion_lower_bound(size, s.q)
        t.add_row([size, best, round(bound, 1), round(best / bound, 2)])
    t.print()
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def _cmd_explain(args) -> int:
    from repro.obs.explain import run_explain, write_report

    res = run_explain(quick=args.quick, slack=args.slack)
    out = args.out
    if out is None and not args.quick:
        out = os.path.join("benchmarks", "results", "explain_report.md")
    if out not in (None, "-"):
        path = write_report(res, out)
        print(f"report -> {path}", file=sys.stderr)
    nviol = len(res.check_violations)
    print(
        f"explain: {nviol} check violation(s), attack "
        f"{'flagged' if res.attack_flagged else 'MISSED'}"
    )
    for v in res.check_violations:
        print(f"  {v}", file=sys.stderr)
    if not res.attack_flagged:
        print("  congestion-attack canary NOT flagged", file=sys.stderr)
    if args.check and not res.ok:
        return 1
    return 0


def _service_config(args):
    from repro.service.batcher import ServiceConfig

    return ServiceConfig(
        n_shards=args.shards,
        q=args.q,
        n=args.n,
        round_capacity=args.round_capacity,
        max_pending=args.max_pending,
        pipeline_depth=getattr(args, "pipeline_depth", 1),
        seed=args.seed,
    )


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.errors import RetriableError
    from repro.service.loadgen import client_values
    from repro.service.service import KVService
    from repro.service.sim import Jitter, det_run
    from repro.workloads.generators import client_keys

    cfg = _service_config(args)
    keys = client_keys(
        args.keyspace, args.clients * args.ops_per_client,
        mix=args.mix, seed=args.seed,
    ).reshape(args.clients, args.ops_per_client)
    vals = client_values(
        np.repeat(np.arange(args.clients), args.ops_per_client),
        np.tile(np.arange(args.ops_per_client), args.clients),
        keys.ravel(),
    ).reshape(args.clients, args.ops_per_client)
    retries = 0

    async def client(svc: "object", c: int, jitter: Jitter) -> None:
        nonlocal retries
        s = svc.session()
        for i in range(args.ops_per_client):
            if i:
                await jitter()
            while True:
                try:
                    if (c + i) % 2:
                        await s.get(int(keys[c, i]))
                    else:
                        await s.put(int(keys[c, i]), int(vals[c, i]))
                    break
                except RetriableError:
                    retries += 1
                    await jitter()

    async def fleet(jitter: Jitter):
        loop = asyncio.get_running_loop()
        async with KVService(cfg, clock=loop.time) as svc:
            await asyncio.gather(
                *(client(svc, c, jitter) for c in range(args.clients))
            )
            return svc.latency_summary(), svc.stats()

    def fleet_with_scale(jitter: Jitter):
        jitter.scale = args.jitter
        return fleet(jitter)

    lat, stats = det_run(fleet_with_scale, seed=args.seed)
    t = Table(["metric", "value"],
              title=f"serve: {args.clients} sessions x "
              f"{args.ops_per_client} ops, {args.shards} shard(s)")
    t.add_row(["rounds", stats["rounds"]])
    t.add_row(["completed", stats["completed"]])
    t.add_row(["lost (retried)", retries])
    for k in ("p50", "p95", "p99", "max"):
        if k in lat:
            t.add_row([f"latency {k} (virtual s)", round(lat[k], 6)])
    watch = stats.get("watch", {})
    t.add_row(["watchdog violations", watch.get("violations", "off")])
    t.add_row(["events dropped", watch.get("events_dropped", "off")])
    t.print()
    ok = not watch or (
        watch["violations"] == 0 and watch["events_dropped"] == 0
    )
    print("serve: " + ("clean" if ok else "FAILED"))
    return 0 if ok else 1


def _cmd_load(args) -> int:
    from repro.service.loadgen import LoadConfig, run_load

    cfg = LoadConfig(
        clients=args.clients,
        ops_per_client=args.ops_per_client,
        keyspace=args.keyspace,
        mix=args.mix,
        get_fraction=args.get_fraction,
        delete_fraction=args.delete_fraction,
        seed=args.seed,
        fault=args.fault,
        crash_rate=args.crash_rate,
        repair_lag=args.repair_lag,
        attack_round=args.attack_round,
        attack_victims=args.victims,
        heal_after=args.heal_after,
        oracle=args.oracle,
    )
    rep = run_load(cfg, _service_config(args), log=print)
    lat = rep.latency
    t = Table(["metric", "value"],
              title=f"load: {rep.clients} clients, mix={rep.mix}, "
              f"fault={rep.fault}")
    t.add_row(["requests completed", rep.completed])
    t.add_row(["rounds", rep.rounds])
    t.add_row(["rounds/sec", round(rep.rounds_per_sec, 1)])
    t.add_row(["ops/sec", round(rep.ops_per_sec, 1)])
    for k in ("p50", "p95", "p99", "max"):
        if k in lat:
            t.add_row([f"latency {k} (s)", round(lat[k], 6)])
    t.add_row(["declared lost (retried)", rep.lost])
    t.add_row(["unfinished clients", rep.unfinished_clients])
    t.add_row(["watchdog violations", rep.violations])
    t.add_row(["events dropped", rep.events_dropped])
    if args.oracle:
        t.add_row(["oracle checked", rep.oracle_checked])
        t.add_row(["oracle mismatches", rep.oracle_mismatches])
    t.print()
    if rep.detection is not None:
        d = rep.detection
        print(
            f"attack detected mid-run at stream round {d['stream_round']}: "
            f"{d['kind']} proc={d['proc']} round={d['round']} var={d['var']}"
        )
    # the health bar depends on the fault mode: fault-free must be
    # spotless; crashes allow store-level partial-write violations (the
    # requests were declared lost) but nothing silently wrong; the
    # stale attack MUST be flagged mid-run
    if args.fault == "none":
        ok = rep.fault_free_clean and rep.unfinished_clients == 0
    elif args.fault == "crash":
        ok = rep.unfinished_clients == 0 and rep.events_dropped == 0
    else:
        ok = rep.detection is not None and rep.unfinished_clients == 0
    if args.oracle and rep.fault != "stale":
        ok = ok and rep.oracle_mismatches == 0
    if args.json_out:
        import json

        with open(args.json_out, "w") as fh:
            json.dump(rep.to_dict(), fh, indent=2, sort_keys=True)
        print(f"report -> {args.json_out}", file=sys.stderr)
    if args.bench_out:
        from repro.obs.perf import BenchRecorder

        rec = BenchRecorder(source="load")
        rep.record_bench(rec)
        path = rec.write(args.bench_out)
        print(f"run record -> {path}", file=sys.stderr)
    print("load: " + ("healthy" if ok else "FAILED"))
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    from repro.core.verification import verify_instance

    rep = verify_instance(args.q, args.n, level=args.level, seed=args.seed)
    print(rep.render())
    return 0 if rep.passed else 1


_COMMANDS = {
    "info": _cmd_info,
    "locate": _cmd_locate,
    "access": _cmd_access,
    "metrics": _cmd_metrics,
    "perf": _cmd_perf,
    "faults": _cmd_faults,
    "conform": _cmd_conform,
    "watch": _cmd_watch,
    "sweep": _cmd_sweep,
    "expansion": _cmd_expansion,
    "explain": _cmd_explain,
    "verify": _cmd_verify,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "load": _cmd_load,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        # the four ``--engine`` flags select the protocol executor for
        # their whole command; other commands keep the current one
        with engine.use(getattr(args, "engine", engine.current())):
            return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
