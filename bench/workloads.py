"""The benchmark's workloads, and the process that measures one of them.

Every input comes from the seed.  ``python bench/workloads.py`` is the
child process :mod:`run` starts once per workload; it prints one JSON
object on its last stdout line.  Import this module (``src`` on the path)
to call the workloads directly at smaller sizes, as the tests do.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from layers import LayerTracer, layer_metrics, render_table

#: Measured repetitions per run, at least; more while time is left.
MIN_REPS = 3


@dataclass
class Rep:
    """One measured repetition."""

    #: seconds of the timed loop (served: the closed loop; scheme: the
    #: write plus the read)
    loop_s: float
    #: seconds of the whole repetition (served: the ``run_load`` call)
    wall_s: float
    #: operations completed in the timed loop
    ops: int
    #: the repetition's median and p99 latency, and their sample count
    p50_s: float
    p99_s: float
    latency_count: int
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def rep_seed(seed: int, k: int) -> int:
    """Input seed of repetition ``k`` of a run with ``seed``.

    Each repetition draws its own inputs, so one run covers several key
    layouts and variable sets instead of one.
    """
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class SchemeWorkload:
    """``PPScheme(q, n)`` at full load: each repetition writes V = N
    distinct uniform variables, then reads them, on one dense store."""

    kind = "scheme"

    def __init__(self, seed: int, q: int = 2, n: int = 9):
        self.seed, self.q, self.n = seed, q, n
        self.scheme = None
        self.store = None

    def _inputs(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Repetition ``k``'s distinct variables and their values."""
        rng = np.random.default_rng(rep_seed(self.seed, k))
        n_vars = self.scheme.N
        return (
            rng.choice(self.scheme.M, size=n_vars, replace=False),
            rng.integers(0, 1 << 31, size=n_vars, dtype=np.int64),
        )

    def setup(self) -> float:
        """Build the scheme, allocate the store, draw the first inputs."""
        from repro.core.scheme import PPScheme

        self.store = None
        t0 = time.perf_counter()
        self.scheme = PPScheme(self.q, self.n)
        self.store = self.scheme.make_store()
        self._inputs(0)
        return time.perf_counter() - t0

    def warm_up(self) -> Rep:
        """Repetition 0, untimed."""
        return self.rep(0)

    def rep(self, k: int, oracle: bool = False) -> Rep:
        """Write repetition ``k``'s values, read them back, count wrong
        reads.  Logical times grow with ``k``, so a read can only return
        this repetition's writes.  Call :meth:`setup` first; ``oracle`` is
        ignored, since every repetition checks its reads."""
        indices, values = self._inputs(k)
        t0 = time.perf_counter()
        self.scheme.write(indices, values, store=self.store, time=2 * k + 1)
        t1 = time.perf_counter()
        got = self.scheme.read(indices, store=self.store, time=2 * k + 2)
        t2 = time.perf_counter()
        wrong = int(np.count_nonzero(got.values != values))
        v = int(indices.size)
        p50, p99 = np.percentile([t1 - t0, t2 - t1], [50.0, 99.0])
        return Rep(
            loop_s=t2 - t0, wall_s=t2 - t0, ops=2 * v,
            p50_s=float(p50), p99_s=float(p99), latency_count=2,
            attempted=2 * v, failed=wrong,
            problems=[f"{wrong} reads differ from the written values"]
            if wrong else [],
        )


_ZIPF = dict(clients=4096, ops_per_client=5, keyspace=2048, mix="zipf",
             zipf_s=1.2, get_fraction=0.5, delete_fraction=0.02)

#: Served traffic: (LoadConfig fields, watchdog on).  Each repetition has
#: at least 12,288 requests, so its p99 has over 120 samples beyond it.
#: Churn's 2560 keys fill 47% of the 5456 table slots of two n=5 shards.
SERVED = {
    "served_zipf": (_ZIPF, True),
    "served_zipf_nowatch": (_ZIPF, False),
    "served_churn": (
        dict(clients=4096, ops_per_client=3, keyspace=2560, mix="uniform",
             get_fraction=0.2, delete_fraction=0.1),
        True,
    ),
}


class ServedWorkload:
    """A closed loop of clients against the sharded KV service: two
    ``n = 5`` shards, a quarter of the clients admitted per round.

    The admission queue holds every client (``max_pending`` = clients),
    so no client waits outside it and the service's admission-to-
    completion latency is what a client sees.
    """

    kind = "served"

    def __init__(self, name: str, seed: int, **sizes):
        from repro.service.batcher import ServiceConfig
        from repro.service.loadgen import LoadConfig

        load, watchdog = SERVED[name]
        self.load = LoadConfig(**{**load, **sizes, "seed": seed})
        clients = self.load.clients
        self.service = ServiceConfig(
            n_shards=2, q=2, n=5, round_capacity=max(1, clients // 4),
            max_pending=clients, watchdog=watchdog,
        )
        self.last_report = None

    def setup(self) -> float:
        """Build the service and the clients' scripts, run no round."""
        from repro.service import loadgen

        cfg = dataclasses.replace(
            self.load, seed=rep_seed(self.load.seed, 0), max_rounds=0
        )
        t0 = time.perf_counter()
        loadgen.run_load(cfg, self.service)
        return time.perf_counter() - t0

    def warm_up(self) -> Rep:
        """One request per client with the oracle on: runs every code
        path and checks the outputs before anything is timed."""
        return self._run(dataclasses.replace(
            self.load, seed=rep_seed(self.load.seed, 0), ops_per_client=1,
            oracle=True,
        ))

    def rep(self, k: int, oracle: bool = False) -> Rep:
        """Closed-loop run ``k``; ``oracle`` replays every completion
        through the admissible-value oracle."""
        return self._run(dataclasses.replace(
            self.load, seed=rep_seed(self.load.seed, k), oracle=oracle
        ))

    def _run(self, cfg) -> Rep:
        from repro.service import loadgen

        t0 = time.perf_counter()
        r = loadgen.run_load(cfg, self.service)
        wall = time.perf_counter() - t0
        self.last_report = r
        unfinished = r.total_requests - (r.completed - r.lost)
        problems = [
            f"{n} {what}" for n, what in (
                (r.lost, "requests declared lost"),
                (unfinished, "requests unfinished"),
                (r.oracle_mismatches, "oracle mismatches"),
                (r.violations, "watchdog violations"),
                (r.events_dropped, "watchdog events dropped"),
            ) if n
        ]
        if cfg.oracle and r.oracle_checked == 0:
            problems.append("the oracle checked no get")
        return Rep(
            loop_s=r.elapsed, wall_s=wall, ops=r.completed,
            p50_s=r.latency["p50"], p99_s=r.latency["p99"],
            latency_count=r.latency["count"],
            attempted=r.total_requests,
            failed=min(r.total_requests, r.lost + max(0, unfinished)
                       + r.oracle_mismatches + r.violations
                       + r.events_dropped),
            problems=problems,
        )


def make(name: str, seed: int, **sizes):
    """The workload called ``name``; ``sizes`` shrink it for tests."""
    if name == "scheme_n9":
        return SchemeWorkload(seed, **sizes)
    if name in SERVED:
        return ServedWorkload(name, seed, **sizes)
    raise ValueError(f"unknown workload {name!r}")


def _timed_reps(wl, first: int, seconds: float, min_reps: int = 1,
                oracle: bool = False,
                tracer: LayerTracer | None = None) -> list[Rep]:
    """Repetitions ``first, first + 1, ...`` until ``seconds`` of
    repetition wall have passed and at least ``min_reps`` ran."""
    reps: list[Rep] = []
    spent = 0.0
    while len(reps) < min_reps or spent < seconds:
        k = first + len(reps)
        if tracer is None:
            reps.append(wl.rep(k, oracle))
        else:
            with tracer:
                reps.append(wl.rep(k, oracle))
        spent += reps[-1].wall_s
    return reps


def _checked(reps: list[Rep]) -> dict:
    return {
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "problems": [p for r in reps for p in r.problems],
    }


def measure(wl, seconds: float) -> dict:
    """End-to-end run: a warm-up, then measured repetitions for
    ``seconds`` and at least :data:`MIN_REPS`.

    Each timing is the best over the measured repetitions: interference
    from other work on the host only adds time, and on a shared machine
    the best repetition varies about half as much from run to run as
    the median one.  The served warm-up is the only run with the oracle
    on (it costs a Python pass per get); the measured ones are checked by
    the loss, completion and watchdog counters.
    """
    warm = wl.warm_up()
    reps = _timed_reps(wl, 1, seconds, MIN_REPS)
    return {
        "metrics": {
            "ops_per_s": max(r.ops / r.loop_s for r in reps),
            "latency_p50_s": min(r.p50_s for r in reps),
            "latency_p99_s": min(r.p99_s for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        },
        "latency_samples": min(r.latency_count for r in reps),
        "samples": {
            "loop_s": [r.loop_s for r in reps],
            "latency_p50_s": [r.p50_s for r in reps],
            "latency_p99_s": [r.p99_s for r in reps],
        },
        "reps": len(reps),
        **_checked([warm, *reps]),
    }


def measure_traced(wl, seconds: float, out=None, tags=None) -> dict:
    """Per-layer run: a warm-up, untraced repetitions for half of
    ``seconds``, then traced ones (oracle on) for the other half."""
    warm = wl.warm_up()
    untraced = _timed_reps(wl, 1, seconds / 2)
    tracer = LayerTracer()
    traced = _timed_reps(wl, 1 + len(untraced), seconds / 2,
                         oracle=wl.kind == "served", tracer=tracer)
    wall = sum(r.wall_s for r in traced) / len(traced)
    metrics, table = layer_metrics(
        tracer, len(traced), wall,
        untraced_s=statistics.median(r.wall_s for r in untraced),
    )
    if out is not None:
        tracer.write_jsonl(out, **(tags or {}))
    return {
        "metrics": metrics,
        "layers": table,
        "table": render_table(table, metrics, wall),
        "reps": len(traced),
        **_checked([warm, *untraced, *traced]),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--mode", choices=("measure", "trace", "setup"),
                    default="measure")
    ap.add_argument("--out", default=None,
                    help="append the traced spans to this JSONL file")
    args = ap.parse_args(argv)
    wl = make(args.workload, args.seed)
    if args.mode == "setup":
        result = {"setup_s": wl.setup()}
    elif args.mode == "measure":
        wl.setup()
        result = measure(wl, args.seconds)
    else:
        wl.setup()
        if args.out:
            with open(args.out, "a") as fh:
                result = measure_traced(
                    wl, args.seconds, fh,
                    {"workload": args.workload, "seed": args.seed},
                )
        else:
            result = measure_traced(wl, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
