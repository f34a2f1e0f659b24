"""Cross-scheme differential fuzzing against a serial-memory oracle.

One seeded workload (:func:`repro.workloads.generators.op_batches`) is
replayed, operation for operation, through every memory-organization
scheme in the comparison set *and* through a plain Python dict -- the
serial memory the paper's theorem says replicated storage must be
indistinguishable from.  Three independent verdicts are diffed per
scheme:

1. every read batch against the oracle's answer at that round;
2. the final state (a sweep read of every variable ever written)
   against the oracle's final state;
3. the recorded operation trace against the
   :class:`~repro.conformance.checker.ConsistencyChecker`'s
   serial-memory-per-variable semantics.

Because all schemes consume the identical workload, oracle agreement is
transitive: six green rows mean all six implementations agree with each
other as well as with serial memory.

:func:`stale_majority_canary` is the harness's self-test -- the one
fault the majority protocol provably cannot mask (``q/2 + 1`` stale
copies with the fresh remnant unreachable, the break-even of the E13
campaign) must surface as a ``stale-read`` violation identifying the
victim reads by (processor, round, variable).  A checker that stays
green under that attack is vacuous.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import repro.core.engine as _engine
from repro.conformance.checker import ConsistencyChecker, ViolationReport
from repro.conformance.recorder import record
from repro.faults.attacks import build_stale_majority, payload_values
from repro.schemes import (
    GridScheme,
    MehlhornVishkinScheme,
    MemoryScheme,
    PPAdapter,
    SingleCopyScheme,
    UpfalWigdersonScheme,
)
from repro.workloads.generators import op_batches

__all__ = [
    "REPORT_BASENAME",
    "SchemeFuzzRow",
    "FuzzResult",
    "CanaryResult",
    "conformance_schemes",
    "fuzz_scheme",
    "run_fuzz",
    "stale_majority_canary",
    "render_markdown",
    "write_report",
]

REPORT_BASENAME = "conformance_fuzz"


def conformance_schemes() -> list[MemoryScheme]:
    """The six implementations under differential test: the four
    baseline organizations plus both deterministic PP constructions
    (q = 2 and q = 4), all behind the common protocol engine."""
    return [
        SingleCopyScheme(64, 512, hashed=True),
        MehlhornVishkinScheme(64, 512, c=3),
        UpfalWigdersonScheme(64, 512, c=2),
        GridScheme(63),
        PPAdapter(2, 3),
        PPAdapter(4, 3),
    ]


def _value_for(t: int, idx: np.ndarray) -> np.ndarray:
    """Deterministic write payloads: a function of (round, variable), so
    every scheme sees byte-identical values and any stale read is
    attributable to a specific earlier round."""
    return payload_values(t, idx)


@dataclass
class SchemeFuzzRow:
    """Differential verdict for one scheme over one workload."""

    scheme: str
    N: int
    M: int
    ops: int
    oracle_mismatches: int  # per-round read diffs vs the serial oracle
    final_mismatches: int  # final-sweep diffs vs the oracle's end state
    report: ViolationReport = field(default_factory=ViolationReport)

    @property
    def ok(self) -> bool:
        """Scheme is indistinguishable from serial memory."""
        return (
            self.oracle_mismatches == 0
            and self.final_mismatches == 0
            and self.report.ok
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (report nested)."""
        return {
            "scheme": self.scheme,
            "N": self.N,
            "M": self.M,
            "ops": self.ops,
            "oracle_mismatches": self.oracle_mismatches,
            "final_mismatches": self.final_mismatches,
            "ok": self.ok,
            "report": self.report.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SchemeFuzzRow":
        """Rehydrate a row from its :meth:`to_dict` form."""
        return cls(
            scheme=d["scheme"],
            N=int(d["N"]),
            M=int(d["M"]),
            ops=int(d["ops"]),
            oracle_mismatches=int(d["oracle_mismatches"]),
            final_mismatches=int(d["final_mismatches"]),
            report=ViolationReport.from_dict(d.get("report", {})),
        )


@dataclass
class FuzzResult:
    """Outcome of one differential fuzz run across the scheme set."""

    seed: int
    total_ops: int
    M: int  # common variable domain (min over schemes)
    rows: list[SchemeFuzzRow] = field(default_factory=list)
    engine: str = "vector"  # protocol engine every scheme ran under

    @property
    def ok(self) -> bool:
        """All schemes agreed with the serial oracle and the checker."""
        return all(r.ok for r in self.rows)

    def to_dict(self) -> dict:
        """JSON-serializable form (rows nested)."""
        return {
            "schema": 1,
            "seed": self.seed,
            "total_ops": self.total_ops,
            "M": self.M,
            "engine": self.engine,
            "ok": self.ok,
            "rows": [r.to_dict() for r in self.rows],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FuzzResult":
        """Rehydrate a result from its :meth:`to_dict` form."""
        return cls(
            seed=int(d["seed"]),
            total_ops=int(d["total_ops"]),
            M=int(d["M"]),
            rows=[SchemeFuzzRow.from_dict(r) for r in d.get("rows", [])],
            engine=str(d.get("engine", "vector")),
        )


def fuzz_scheme(
    scheme: MemoryScheme,
    plan: list[tuple[str, np.ndarray]],
    checker: ConsistencyChecker | None = None,
    trace_path: str | None = None,
) -> SchemeFuzzRow:
    """Replay one batch plan through ``scheme``, diff against the serial
    oracle, and run the consistency checker over the recorded trace.

    Optionally persists the full JSONL trace to ``trace_path`` (done
    unconditionally, so a failing CI run leaves the evidence behind).
    """
    checker = checker or ConsistencyChecker()
    oracle: dict[int, int] = {}
    store = scheme.make_store()
    ops = 0
    oracle_mismatches = 0
    with record() as rec:
        t = 0
        for t, (kind, idx) in enumerate(plan, start=1):
            ops += idx.size
            if kind == "write":
                vals = _value_for(t, idx)
                scheme.write(idx, values=vals, store=store, time=t)
                for v, x in zip(idx, vals):
                    oracle[int(v)] = int(x)
            else:
                res = scheme.read(idx, store=store, time=t)
                want = np.array(
                    [oracle.get(int(v), -1) for v in idx], dtype=np.int64
                )
                oracle_mismatches += int(np.count_nonzero(res.values != want))
        # final sweep: every variable ever written, one last read batch
        final_mismatches = 0
        if oracle:
            sweep = np.array(sorted(oracle), dtype=np.int64)
            res = scheme.read(sweep, store=store, time=t + 1)
            want = np.array([oracle[int(v)] for v in sweep], dtype=np.int64)
            final_mismatches = int(np.count_nonzero(res.values != want))
            ops += sweep.size
    if trace_path is not None:
        rec.write_jsonl(trace_path)
    return SchemeFuzzRow(
        scheme=scheme.name,
        N=scheme.N,
        M=scheme.M,
        ops=ops,
        oracle_mismatches=oracle_mismatches,
        final_mismatches=final_mismatches,
        report=checker.check_mem_ops(rec.mem_ops()),
    )


def run_fuzz(
    seed: int = 0,
    total_ops: int = 2000,
    schemes: list[MemoryScheme] | None = None,
    trace_dir: str | None = None,
    max_batch: int = 32,
) -> FuzzResult:
    """Differential fuzz: one workload, every scheme, three verdicts.

    The workload is drawn over the *smallest* variable domain in the
    scheme set so all schemes replay identical batches.  When
    ``trace_dir`` is given, each scheme's JSONL trace is written there
    (``trace_<scheme>.jsonl``) for post-mortem checking.  Every access
    runs under the selected protocol executor
    (:func:`repro.core.engine.current`), which the result records; the
    verdicts must not depend on it.
    """
    schemes = schemes if schemes is not None else conformance_schemes()
    if not schemes:
        raise ValueError("need at least one scheme to fuzz")
    M = min(s.M for s in schemes)
    plan = op_batches(
        M, total_ops, seed=seed, max_batch=min(max_batch, M)
    )
    result = FuzzResult(
        seed=seed, total_ops=total_ops, M=M, engine=_engine.current()
    )
    for i, scheme in enumerate(schemes):
        trace_path = None
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(
                trace_dir, f"trace_{i}_{scheme.name.replace(' ', '_')}.jsonl"
            )
        result.rows.append(
            fuzz_scheme(scheme, plan, trace_path=trace_path)
        )
    return result


@dataclass
class CanaryResult:
    """Outcome of the stale-majority self-test."""

    report: ViolationReport
    expected: list[tuple[int, int, int]]  # (processor, round, variable)
    silent_wrong_reads: int  # victim reads the protocol returned wrong

    @property
    def detected(self) -> bool:
        """The checker flagged every silently-wrong victim read as a
        ``stale-read`` at its exact (processor, round, variable)."""
        flagged = {
            (v.proc, v.round, int(v.var))
            for v in self.report.violations
            if v.kind == "stale-read"
        }
        return (
            self.silent_wrong_reads > 0
            and set(self.expected) <= flagged
        )


def stale_majority_canary(seed: int = 0, n_victims: int = 3) -> CanaryResult:
    """Force the one unmaskable fault and demand the checker sees it.

    On the q = 2 construction (3 copies, majority 2, tolerance 1): write
    old values at round 1 and fresh values at round 2, roll ``q/2 + 1``
    copies of each victim back to the old (value, stamp), and kill the
    fresh remnant's modules so the stale majority is the only reachable
    quorum.  The protocol then answers the round-3 read with the old
    value *without reporting a fault* -- the silent corruption the E13
    campaign pins just past the q/2 threshold.  The returned
    :class:`CanaryResult` says whether the checker flagged exactly those
    reads.

    The adversary itself lives in :mod:`repro.faults.attacks`; this
    wrapper records its trace and runs the *batch* checker over it (the
    online watchdog equivalent is
    :func:`repro.conformance.streaming.run_watchdog_canary`).
    """
    attack = build_stale_majority(seed=seed, n_victims=n_victims)
    with record() as rec:
        attack.seed_history()
        attack.go_stale()  # q/2 + 1 stale copies, fresh remnant cut
        res = attack.read(time=3)
    expected, silent_wrong = attack.victim_verdict(res, time=3)
    report = ConsistencyChecker().check_mem_ops(rec.mem_ops())
    return CanaryResult(
        report=report,
        expected=expected,
        silent_wrong_reads=silent_wrong,
    )


def render_markdown(result: FuzzResult) -> str:
    """The fuzz result as a markdown report."""
    lines = [
        "# Conformance differential fuzz",
        "",
        f"Workload: seed {result.seed}, >= {result.total_ops} operations "
        f"over M = {result.M} shared variables (common domain), replayed "
        f"identically through every scheme and a serial dict oracle "
        f"(protocol engine: {result.engine}).",
        "",
        "| scheme | N | M | ops | oracle diffs | final diffs | "
        "checker violations | verdict |",
        "|--------|---|---|-----|--------------|-------------|"
        "--------------------|---------|",
    ]
    for r in result.rows:
        lines.append(
            f"| {r.scheme} | {r.N} | {r.M} | {r.ops} | "
            f"{r.oracle_mismatches} | {r.final_mismatches} | "
            f"{r.report.n_violations} | {'PASS' if r.ok else 'FAIL'} |"
        )
    lines += ["", f"**Overall: {'PASS' if result.ok else 'FAIL'}**"]
    for r in result.rows:
        if not r.report.ok:
            lines += ["", f"## Violations: {r.scheme}", "", r.report.render()]
    return "\n".join(lines)


def write_report(result: FuzzResult, out_dir: str) -> tuple[str, str]:
    """Write ``conformance_fuzz.md`` + ``.json`` under ``out_dir``;
    returns (md_path, json_path)."""
    os.makedirs(out_dir, exist_ok=True)
    md_path = os.path.join(out_dir, REPORT_BASENAME + ".md")
    json_path = os.path.join(out_dir, REPORT_BASENAME + ".json")
    with open(md_path, "w") as fh:
        fh.write(render_markdown(result))
    with open(json_path, "w") as fh:
        json.dump(result.to_dict(), fh, indent=2)
    return md_path, json_path
