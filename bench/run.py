"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload served_zipf --seed 3 --seconds 10 --trace 0

Each selected workload (all four when ``--workload`` is left out) runs in
its own child process, one at a time, single-threaded, so peak memory
and warm caches belong to that workload alone.  ``setup_s`` comes from
separate child processes that only set up, each from a cold start.
``--trace 1`` (or bare ``--trace``) measures the layers instead: the
child wraps each layer's entry points from this directory's code and
reports self times, counts, coverage and the tracing overhead.

Every metric is printed by name with its unit; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Exit
status: 0 when every output checked out (and, traced, the layers cover
at least 95% of the wall), 1 otherwise after printing the metrics, 2 when
the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from layers import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: name -> why it is in the benchmark
WORKLOADS = {
    "scheme_n9": "the paper's full-load access at N = 262,143: addressing "
                 "dominates; bypasses kvstore, the service and the watchdog",
    "served_zipf": "the served default: zipf traffic on two shards with the "
                   "streaming watchdog, which takes most of the wall",
    "served_zipf_nowatch": "the same traffic without the watchdog: no event is "
                           "emitted, so watchdog and emission changes predict "
                           "no move here",
    "served_churn": "write- and delete-heavy uniform traffic on a large live "
                    "key set: long probe chains, recycled tombstones, large "
                    "watchdog state",
}

#: (name, unit, better, bound as a share of the parent's median)
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_p99_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: cold set-ups per run; ``setup_s`` is their median
SETUP_RUNS = 5
COVERAGE_MIN = 0.95
#: seconds one child may take before it is stopped
CHILD_TIMEOUT = 170


def child(workload: str, seed: int, mode: str, seconds: float = 0.0,
          out: str | None = None) -> dict:
    """Run ``workloads.py`` in a fresh interpreter; its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload",
           workload, "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds)]
    if out:
        cmd += ["--out", out]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} ({mode}) exited with status {proc.returncode}"
        )
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out: str | None) -> dict:
    """One workload's result: metrics with units, counts and checks."""
    if trace:
        res = child(name, seed, "trace", seconds, out)
        spec = [(m, unit) for m, unit, _ in PER_LAYER]
    else:
        setups = [child(name, seed, "setup")["setup_s"]
                  for _ in range(SETUP_RUNS)]
        res = child(name, seed, "measure", seconds)
        res["metrics"]["setup_s"] = statistics.median(setups)
        res["samples"]["setup_s"] = setups
        spec = [(m, unit) for m, unit, _, _ in END_TO_END]
    res["metrics"] = {
        m: {"value": res["metrics"][m], "unit": unit} for m, unit in spec
    }
    if trace and res["metrics"]["coverage"]["value"] < COVERAGE_MIN:
        res["problems"].append(
            f"layers cover {res['metrics']['coverage']['value']:.3f} of the "
            f"wall, below {COVERAGE_MIN}"
        )
    return res


def src_lines() -> int:
    """Lines of Python under ``src/`` (printed for information only)."""
    return sum(
        len(p.read_text().splitlines()) for p in SRC.rglob("*.py")
    )


def report(name: str, res: dict, trace: bool) -> None:
    """Human-readable block for one workload."""
    kind = "traced" if trace else "measured"
    print(f"== {name}  ({res['reps']} {kind} repetitions)")
    if trace:
        print(res["table"])
    else:
        bounds = {m: (better, bound) for m, _, better, bound in END_TO_END}
        for m, v in res["metrics"].items():
            better, bound = bounds[m]
            print(f"  {m:<16} {v['value']:>14.6g} {v['unit']:<5} "
                  f"{better:>6} is better, bound {bound:.0%}")
        print(f"  samples behind each latency percentile: "
              f"{res['latency_samples']}")
    for p in res["problems"]:
        print(f"  FAILED: {p}")


def bench_export(directory: str, results: dict, trace: bool) -> str:
    """Write a schema-1 ``BENCH_*.json`` record of this run."""
    sys.path.insert(0, str(SRC))
    from repro.obs.perf import BenchRecorder

    rec = BenchRecorder(source="bench/run.py")
    for name, res in results.items():
        if trace:
            for layer, seconds in res["layers"].items():
                if seconds > 0:
                    rec.observe(f"bench.{name}.{layer}.self_s", seconds)
            rec.scalar(f"bench.{name}.coverage",
                       res["metrics"]["coverage"]["value"])
            continue
        for section, samples in res["samples"].items():
            for s in samples:
                rec.observe(f"bench.{name}.{section}", s)
        for m in ("ops_per_s", "peak_rss_mb"):
            rec.scalar(f"bench.{name}.{m}", res["metrics"][m]["value"])
    os.makedirs(directory, exist_ok=True)
    return rec.write(directory)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run only this workload (default: all four)")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed (default 0)")
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="measured seconds per workload (default 12)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: per-layer metrics instead")
    ap.add_argument("--out", metavar="FILE",
                    help="with --trace: write every span as JSONL here")
    ap.add_argument("--bench-out", metavar="DIR",
                    help="also write a BENCH_*.json record into DIR")
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    if args.out and not trace:
        ap.error("--out needs --trace 1")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.out:
        open(args.out, "w").close()
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         trace, args.out)
            report(name, results[name], trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"src/ lines: {src_lines()} (information only)")
    if args.bench_out:
        print(f"run record -> {bench_export(args.bench_out, results, trace)}")
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items()
                   for m, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    correct = not any(r["problems"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
