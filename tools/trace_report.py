#!/usr/bin/env python3
"""Summarize a JSONL trace into per-phase tables (the E06 view).

Reads a trace recorded with ``python -m repro access --trace-out FILE``
(or any :class:`repro.obs.trace.RecordingTracer` dump) and renders, for
every ``protocol.access`` span, the per-phase iteration table of
EXPERIMENTS.md E06: phase, variables, iterations, live-variable
trajectory endpoints, and wall time, then the access's machine summary
(steps, requests, served, max congestion) from the span's MPC totals.
Exits 2 on an unreadable trace, one without ``protocol.access`` spans,
or an access span that lacks its MPC totals.

Run:  python tools/trace_report.py TRACE.jsonl
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.report import Table  # noqa: E402
from repro.obs.trace import read_jsonl  # noqa: E402


#: the machine summary's columns: header and ``protocol.access`` field
MACHINE_FIELDS = (
    ("MPC steps", "mpc_steps"),
    ("requests", "mpc_requests"),
    ("served", "mpc_served"),
    ("max congestion", "mpc_max_congestion"),
)


def group_accesses(events: list[dict]) -> list[dict]:
    """Attach phase spans to their enclosing ``protocol.access`` span.

    Spans are emitted at close (children precede parents), so walk the
    stream collecting children until their access span arrives.
    """
    accesses = []
    pending_phases: list[dict] = []
    for ev in events:
        if ev["name"] == "protocol.phase":
            pending_phases.append(ev)
        elif ev["name"] == "protocol.access":
            accesses.append({"access": ev, "phases": pending_phases})
            pending_phases = []
    return accesses


def render_access(num: int, group: dict) -> list[Table]:
    """The per-phase table plus a one-line machine summary."""
    acc = group["access"]
    t = Table(
        ["phase", "variables", "iterations", "R_0", "R_final", "seconds"],
        title=(
            f"access #{num}: op={acc.get('op', '?')}, "
            f"requests={acc.get('requests', '?')}, q={acc.get('q', '?')}, "
            f"total iterations={acc.get('total_iterations', '?')}"
        ),
    )
    for ph in sorted(group["phases"], key=lambda e: e.get("phase", 0)):
        hist = ph.get("live_history") or []
        t.add_row([
            ph.get("phase"),
            ph.get("variables"),
            ph.get("iterations"),
            hist[0] if hist else "-",
            hist[-1] if hist else "-",
            round(ph.get("dur", 0.0), 6),
        ])
    m = Table(
        [head for head, _ in MACHINE_FIELDS],
        title=f"access #{num}: machine summary",
    )
    m.add_row([acc[field] for _, field in MACHINE_FIELDS])
    return [t, m]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        description="render a repro JSONL trace as per-phase tables"
    )
    p.add_argument("trace", help="JSONL trace file (from access --trace-out)")
    args = p.parse_args(argv)
    try:
        events = read_jsonl(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}",
              file=sys.stderr)
        return 2
    accesses = group_accesses(events)
    if not accesses:
        print(
            f"error: no protocol.access spans in {args.trace!r} "
            f"({len(events)} events)",
            file=sys.stderr,
        )
        return 2
    for i, group in enumerate(accesses):
        missing = [f for _, f in MACHINE_FIELDS if f not in group["access"]]
        if missing:
            print(
                f"error: protocol.access span #{i} in {args.trace!r} lacks "
                f"its MPC totals ({', '.join(missing)})",
                file=sys.stderr,
            )
            return 2
    for i, group in enumerate(accesses):
        for t in render_access(i, group):
            t.print()
            print()
    other = [e["name"] for e in events
             if e["name"] not in ("protocol.access", "protocol.phase")]
    if other:
        counts = {}
        for name in other:
            counts[name] = counts.get(name, 0) + 1
        summary = ", ".join(f"{k} x{v}" for k, v in sorted(counts.items()))
        print(f"other events: {summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
