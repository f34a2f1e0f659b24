"""Renderers for lint results: terminal text, machine JSON, markdown.

The JSON form (``repro lint --format json``) is the interchange schema
consumed by ``tools/lint_report.py`` and CI; it carries the full
new/baselined/stale partition plus per-rule counts so downstream
reports need no re-run.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from repro.lint.baseline import BaselineEntry, BaselineResult
from repro.lint.project import Finding
from repro.lint.rules import RULES

__all__ = [
    "LintResult",
    "render_text",
    "render_json",
    "render_markdown",
]


def rule_family(rule_id: str) -> str:
    """Family letter of a rule id (``D3`` -> ``D``; ``E0`` -> ``E``)."""
    return rule_id[:1] if rule_id else "?"

#: schema version of the JSON interchange form
JSON_SCHEMA = 1


@dataclass
class LintResult:
    """One lint run: the findings partition plus run metadata."""

    paths: list[str]
    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale: list[BaselineEntry] = field(default_factory=list)
    baseline_path: str | None = None

    @classmethod
    def from_partition(
        cls,
        paths: list[str],
        part: BaselineResult,
        baseline_path: str | None,
    ) -> "LintResult":
        """Wrap a :class:`BaselineResult` partition with run metadata."""
        return cls(
            paths=list(paths),
            new=part.new,
            baselined=part.baselined,
            stale=part.stale,
            baseline_path=baseline_path,
        )

    @property
    def ok(self) -> bool:
        """Clean run: no new findings and no stale baseline entries."""
        return not self.new and not self.stale

    def counts_by_rule(self) -> dict[str, dict[str, int]]:
        """Per-rule ``{"new": n, "baselined": m}`` tallies, id-sorted."""
        new = Counter(f.rule for f in self.new)
        old = Counter(f.rule for f in self.baselined)
        out: dict[str, dict[str, int]] = {}
        for rule in sorted(set(new) | set(old)):
            out[rule] = {"new": new.get(rule, 0), "baselined": old.get(rule, 0)}
        return out

    def counts_by_family(self) -> dict[str, dict[str, int]]:
        """Per-family (D/E/F) tallies with the number of distinct rules
        that fired, for the grouped report as the ruleset grows."""
        out: dict[str, dict[str, int]] = {}
        per_rule = self.counts_by_rule()
        for rule, c in per_rule.items():
            fam = out.setdefault(
                rule_family(rule), {"new": 0, "baselined": 0, "rules": 0}
            )
            fam["new"] += c["new"]
            fam["baselined"] += c["baselined"]
            fam["rules"] += 1
        return out

    def to_dict(self) -> dict:
        """The versioned JSON interchange form (``--format json``)."""
        return {
            "schema": JSON_SCHEMA,
            "paths": self.paths,
            "baseline": self.baseline_path,
            "ok": self.ok,
            "counts": self.counts_by_rule(),
            "families": self.counts_by_family(),
            "new": [f.to_dict() for f in self.new],
            "baselined": [f.to_dict() for f in self.baselined],
            "stale": [e.to_dict() for e in self.stale],
            "rules": {
                r.id: {"name": r.name, "rationale": r.rationale}
                for r in RULES
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LintResult":
        """Inverse of :meth:`to_dict`; rejects unknown schema versions."""
        if d.get("schema") != JSON_SCHEMA:
            raise ValueError(f"unsupported lint JSON schema {d.get('schema')!r}")
        return cls(
            paths=list(d.get("paths", [])),
            new=[Finding.from_dict(x) for x in d.get("new", [])],
            baselined=[Finding.from_dict(x) for x in d.get("baselined", [])],
            stale=[
                BaselineEntry(
                    rule=x["rule"], path=x["path"], snippet=x["snippet"],
                    reason=x["reason"], count=int(x.get("count", 1)),
                )
                for x in d.get("stale", [])
            ],
            baseline_path=d.get("baseline"),
        )


def render_text(result: LintResult, verbose: bool = False) -> str:
    """Compiler-style one-line-per-finding output for terminals."""
    lines: list[str] = []
    for f in result.new:
        lines.append(f.describe())
    for e in result.stale:
        lines.append(
            f"{e.path}: stale baseline entry for {e.rule} "
            f"({e.snippet!r}) -- the finding is gone, delete the entry"
        )
    if verbose:
        for f in result.baselined:
            lines.append(f"baselined: {f.describe()}")
    n_new, n_base = len(result.new), len(result.baselined)
    lines.append(
        f"repro lint: {n_new} new finding(s), {n_base} baselined, "
        f"{len(result.stale)} stale baseline entr(ies) -- "
        + ("clean" if result.ok else "FAIL")
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Pretty-printed JSON interchange form of the run."""
    return json.dumps(result.to_dict(), indent=2)


def render_markdown(result: LintResult) -> str:
    """Report in the repo's benchmarks/results house style."""
    out: list[str] = ["# Determinism lint report", ""]
    out.append(
        f"Scanned: `{'`, `'.join(result.paths)}`  \n"
        f"Verdict: **{'clean' if result.ok else 'FAIL'}** "
        f"({len(result.new)} new, {len(result.baselined)} baselined, "
        f"{len(result.stale)} stale)"
    )
    out.append("")
    out.append("## Findings by family")
    out.append("")
    out.append("| family | rules hit | new | baselined |")
    out.append("|--------|----------:|----:|----------:|")
    fams = result.counts_by_family()
    for fam in sorted(fams):
        c = fams[fam]
        out.append(
            f"| {fam} | {c['rules']} | {c['new']} | {c['baselined']} |"
        )
    out.append("")
    out.append("## Findings by rule")
    out.append("")
    out.append("| rule | name | new | baselined |")
    out.append("|------|------|----:|----------:|")
    counts = result.counts_by_rule()
    names = {r.id: r.name for r in RULES}
    for rule in sorted(set(counts) | set(names)):
        c = counts.get(rule, {"new": 0, "baselined": 0})
        out.append(
            f"| {rule} | {names.get(rule, '?')} | {c['new']} "
            f"| {c['baselined']} |"
        )
    if result.new:
        out.append("")
        out.append("## New findings")
        out.append("")
        out.append("| location | rule | message |")
        out.append("|----------|------|---------|")
        for f in result.new:
            out.append(
                f"| `{f.path}:{f.line}` | {f.rule} | {f.message} |"
            )
    if result.baselined:
        out.append("")
        out.append("## Grandfathered (baselined) findings")
        out.append("")
        out.append("| location | rule | snippet |")
        out.append("|----------|------|---------|")
        for f in result.baselined:
            snippet = f.snippet.replace("|", "\\|")
            out.append(f"| `{f.path}:{f.line}` | {f.rule} | `{snippet}` |")
    if result.stale:
        out.append("")
        out.append("## Stale baseline entries (delete these)")
        out.append("")
        for e in result.stale:
            out.append(f"- {e.rule} `{e.path}`: `{e.snippet}`")
    out.append("")
    return "\n".join(out)
