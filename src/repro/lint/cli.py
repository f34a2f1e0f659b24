"""``repro lint`` -- the command-line surface of the rule engine.

Exit-code contract (relied on by CI and ``make lint``):

* ``0`` -- clean: no new findings, no stale baseline entries;
* ``1`` -- new findings (or stale entries, which must be deleted);
* ``2`` -- usage/configuration error (bad rule id, unreadable
  baseline, unjustified baseline entry).

``--select``/``--ignore`` choose the rules.  Baseline entries for
rules the run did not execute are ignored, not reported stale, so
partial runs keep the exit contract honest.  ``--graph-out`` exports
the project's call graph and module-dependency graph.

``--write-baseline`` regenerates the grandfather file from the current
findings, preserving reasons for fingerprints that already had one;
brand-new entries get a placeholder the loader *refuses*, so a freshly
written baseline fails until every entry is hand-justified.
"""

from __future__ import annotations

import argparse
import sys

from repro.lint.baseline import Baseline, find_default_baseline
from repro.lint.config import LintConfig
from repro.lint.engine import LintEngine
from repro.lint.project import Project
from repro.lint.report import (
    LintResult,
    render_json,
    render_markdown,
    render_text,
)
from repro.lint.rules import RULES

__all__ = ["add_lint_arguments", "run_lint", "main"]


def add_lint_arguments(sp: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` options to an argparse (sub)parser."""
    sp.add_argument(
        "paths", nargs="*", default=["src/repro"], metavar="PATH",
        help="files/directories to scan (default: src/repro)",
    )
    sp.add_argument(
        "--format", choices=["text", "json", "md"], default="text",
        help="output format (json is the tools/lint_report.py input)",
    )
    sp.add_argument(
        "--graph-out", default=None, metavar="FILE",
        help="write the call-graph/module-dependency JSON to FILE",
    )
    sp.add_argument(
        "--select", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    sp.add_argument(
        "--ignore", default=None, metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    sp.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file (default: nearest .lint-baseline.json above "
        "the first scanned path)",
    )
    sp.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline; report every finding as new",
    )
    sp.add_argument(
        "--write-baseline", action="store_true",
        help="regenerate the baseline from current findings and exit",
    )
    sp.add_argument(
        "--verbose", action="store_true",
        help="also list grandfathered findings in text output",
    )
    sp.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )


def _parse_ids(spec: str | None) -> frozenset[str] | None:
    if spec is None:
        return None
    return frozenset(s.strip().upper() for s in spec.split(",") if s.strip())


def _list_rules() -> str:
    lines = ["rule  name                  zones                rationale"]
    for r in RULES:
        zones = ",".join(z.removeprefix("repro/") for z in r.zones) or "(all)"
        lines.append(f"{r.id:5s} {r.name:21s} {zones:20s} {r.rationale}")
    return "\n".join(lines)


def run_lint(args: argparse.Namespace) -> int:
    """Execute one lint run from parsed arguments; returns exit code."""
    if args.list_rules:
        print(_list_rules())
        return 0

    select = _parse_ids(args.select)
    ignore = _parse_ids(args.ignore) or frozenset()
    known = {r.id for r in RULES}
    for rid in (select or frozenset()) | ignore:
        if rid not in known:
            print(
                f"error: unknown rule {rid!r}; known: {sorted(known)}",
                file=sys.stderr,
            )
            return 2
    engine = LintEngine(LintConfig(select=select, ignore=ignore))
    try:
        project = Project.build(args.paths)
        if args.graph_out:
            project.write_graph(args.graph_out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings = engine.check(project)
    active = {"E0"} | {r.id for r in engine.active_rules()}

    baseline_path = None if args.no_baseline else (
        args.baseline or find_default_baseline(args.paths)
    )

    if args.write_baseline:
        previous = None
        if baseline_path is not None:
            try:
                previous = Baseline.load(baseline_path)
            except (OSError, ValueError):
                previous = None  # regenerating an absent/broken file
        out_path = baseline_path or ".lint-baseline.json"
        regenerated = Baseline.from_findings(findings, previous)
        if previous is not None:
            # keep entries for rules this (possibly partial) run never
            # executed -- a --select/--ignore write must not drop them
            regenerated.entries.extend(
                e for e in previous.entries if e.rule not in active
            )
        regenerated.write(out_path)
        print(
            f"baseline with {len(findings)} finding(s) -> {out_path}; "
            f"fill in every placeholder reason before committing",
            file=sys.stderr,
        )
        return 0

    baseline = Baseline()
    if baseline_path is not None:
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    result = LintResult.from_partition(
        args.paths, baseline.apply(findings, active), baseline_path
    )
    if args.format == "json":
        print(render_json(result))
    elif args.format == "md":
        print(render_markdown(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="determinism static analysis for the repro package",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
