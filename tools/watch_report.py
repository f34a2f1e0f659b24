#!/usr/bin/env python3
"""Render the live-watchdog run records into ``watchdog_report.md``.

Reads ``watch_fuzz.json`` (written by ``python -m repro watch fuzz``)
and, when present, ``watch_attack.json`` (``python -m repro watch
attack``) from a results directory and renders one markdown report:
the run summary with its memory-bound verdict, a sampled table of the
rolling health snapshots, the ``watch.*`` telemetry with p50/p95/p99
quantiles, and the online stale-majority canary verdict.

Run:  python tools/watch_report.py [--dir benchmarks/results]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

REPORT_BASENAME = "watchdog_report.md"
#: cap on snapshot rows rendered; long runs are subsampled evenly
MAX_SNAPSHOT_ROWS = 20


def sample_rows(rows: list, limit: int = MAX_SNAPSHOT_ROWS) -> list:
    """At most ``limit`` rows, evenly spaced, always keeping the last."""
    if len(rows) <= limit:
        return rows
    step = (len(rows) - 1) / (limit - 1)
    picks = sorted({round(i * step) for i in range(limit)} | {len(rows) - 1})
    return [rows[i] for i in picks[:limit]]


def fuzz_section(fuzz: dict) -> list[str]:
    """The streaming-fuzz run summary + snapshot table."""
    report = fuzz.get("report", {})
    n_viol = len(report.get("violations", []))
    verdict = "clean" if fuzz.get("ok") else "FAILED"
    lines = [
        "## Streaming fuzz under the watchdog",
        "",
        f"Scheme `{fuzz['scheme']}`, seed {fuzz['seed']}, "
        f">= {fuzz['total_ops']} operations over {fuzz['rounds']} rounds, "
        f"checker window {fuzz['window']} rounds.",
        "",
        f"- events consumed: **{fuzz['events']}** "
        f"(dropped: {fuzz['events_dropped']}, "
        f"late: {fuzz.get('late_dropped', 0)})",
        f"- violations: **{n_viol}**",
        f"- peak checker state: **{fuzz['peak_state']}** entries "
        f"(buffered peak {fuzz.get('peak_buffered', 0)})",
    ]
    budget = fuzz.get("state_budget")
    if budget is not None:
        lines.append(
            f"- state budget: {budget} entries -- "
            + ("held" if fuzz["peak_state"] <= budget else "**BUSTED**")
        )
    rss = fuzz.get("peak_rss_mb")
    if rss is not None:
        rss_budget = fuzz.get("rss_budget_mb")
        bound = (
            f" (budget {rss_budget} MiB -- "
            + ("held" if rss <= rss_budget else "**BUSTED**")
            + ")"
            if rss_budget is not None
            else ""
        )
        lines.append(f"- peak RSS: {rss} MiB{bound}")
    lines += ["", f"Verdict: **{verdict}**", ""]

    snaps = fuzz.get("snapshots", [])
    if snaps:
        lines += [
            f"### Health snapshots ({len(snaps)} taken, "
            f"{min(len(snaps), MAX_SNAPSHOT_ROWS)} shown)",
            "",
            "| round | batches | requests | lost | degraded | "
            "quorum margin | checker lag | state | violations |",
            "|-------|---------|----------|------|----------|"
            "---------------|-------------|-------|------------|",
        ]
        for s in sample_rows(snaps):
            lines.append(
                f"| {s['round']} | {s['batches']} | {s['requests']} | "
                f"{s['lost']} | {s['degraded']} | "
                f"{s['min_quorum_margin']} | {s['checker_lag']} | "
                f"{s['state_size']} | {s['violations']} |"
            )
        lines.append("")
    return lines


def metrics_section(metrics: dict) -> list[str]:
    """The ``watch.*`` registry snapshot as one table."""
    lines = [
        "## Live telemetry (`watch.*`)",
        "",
        "| metric | type | value / count | p50 | p95 | p99 | max |",
        "|--------|------|---------------|-----|-----|-----|-----|",
    ]
    for name in sorted(metrics):
        m = metrics[name]
        kind = m.get("type", "?")
        if kind == "histogram":
            lines.append(
                f"| `{name}` | {kind} | {m.get('count', 0)} obs "
                f"| {m.get('p50', '-')} | {m.get('p95', '-')} "
                f"| {m.get('p99', '-')} | {m.get('max', '-')} |"
            )
        else:
            lines.append(
                f"| `{name}` | {kind} | {m.get('value', '-')} "
                "| - | - | - | - |"
            )
    lines.append("")
    return lines


def attack_section(attack: dict) -> list[str]:
    """The online stale-majority canary verdict."""
    detected = attack.get("detected_online")
    lines = [
        "## Online stale-majority canary",
        "",
        "The q/2+1 rollback with the fresh remnant unreachable is the "
        "one fault the majority protocol cannot mask; the watchdog must "
        "flag it *while the run is still going*.",
        "",
        f"- silently-wrong reads injected: "
        f"**{attack.get('silent_wrong_reads', 0)}**",
        f"- detected at round **{attack.get('detected_at_round')}** of "
        f"{attack.get('last_round')} -- "
        + ("**DETECTED ONLINE**" if detected else "**MISSED**"),
        f"- <= q/2 control run: {attack.get('control_violations', 0)} "
        f"violation(s), {attack.get('control_degraded', 0)} degraded, "
        f"{attack.get('control_lost', 0)} lost -- "
        + ("clean" if attack.get("control_clean") else "**NOT CLEAN**"),
        "",
        f"Verdict: **{'ok' if attack.get('ok') else 'FAILED'}**",
        "",
    ]
    return lines


def render(fuzz: dict | None, attack: dict | None) -> str:
    lines = [
        "# Live watchdog report",
        "",
        "Online windowed conformance checking + health telemetry fed "
        "from the `repro.obs` event bus "
        "(`python -m repro watch fuzz | attack`).",
        "",
    ]
    if fuzz is not None:
        lines += fuzz_section(fuzz)
        if fuzz.get("metrics"):
            lines += metrics_section(fuzz["metrics"])
    if attack is not None:
        lines += attack_section(attack)
    if fuzz is None and attack is None:
        lines += ["No watch run records found.", ""]
    return "\n".join(lines)


def load_optional(path: Path) -> dict | None:
    """Load a run record, accepting a gzipped ``<name>.gz`` sibling
    (``repro watch fuzz`` compresses its snapshot-heavy record)."""
    gz = path.with_name(path.name + ".gz")
    if path.exists():
        with open(path) as fh:
            return json.load(fh)
    if gz.exists():
        import gzip

        with gzip.open(gz, "rt") as fh:
            return json.load(fh)
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--dir", default=os.path.join("benchmarks", "results"),
        help="directory holding watch_fuzz.json / watch_attack.json",
    )
    ap.add_argument(
        "--out", default=None,
        help=f"output path (default: <dir>/{REPORT_BASENAME})",
    )
    args = ap.parse_args(argv)

    d = Path(args.dir)
    fuzz = load_optional(d / "watch_fuzz.json")
    attack = load_optional(d / "watch_attack.json")
    if fuzz is None and attack is None:
        print(f"no watch_fuzz.json or watch_attack.json in {d}",
              file=sys.stderr)
        return 2
    md = render(fuzz, attack)
    out = Path(args.out) if args.out else d / REPORT_BASENAME
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(md)
    print(md)
    print(f"report -> {out}", file=sys.stderr)
    ok = all(r.get("ok") for r in (fuzz, attack) if r is not None)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
