"""The lint engine: one project, every enabled rule, one pass.

:class:`LintEngine` builds the :class:`~repro.lint.project.Project` once
(the only parse), runs every rule of :data:`~repro.lint.rules.RULES`
that survives ``--select``/``--ignore`` over it, and returns the parse
errors plus the rule findings sorted by location.

Suppression: a ``# noqa: D3`` comment on the flagged line silences
that rule there; bare ``# noqa`` silences all rules on the line.
Grandfathered findings live in the committed baseline instead
(:mod:`repro.lint.baseline`) so they stay visible and justified.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable

from repro.lint.config import LintConfig
from repro.lint.project import Finding, Project
from repro.lint.rules import RULES, Rule

__all__ = ["LintEngine", "lint_source"]


@dataclass
class LintEngine:
    """Dispatch every enabled rule over one project."""

    config: LintConfig = dc_field(default_factory=LintConfig)

    def active_rules(self) -> list[Rule]:
        """Rules surviving the select/ignore configuration."""
        return [r for r in RULES if self.config.rule_enabled(r.id)]

    def check(self, project: Project) -> list[Finding]:
        """E0 parse errors plus every unsuppressed rule finding, sorted
        by location."""
        findings = list(project.errors)
        for rule in self.active_rules():
            for f in rule.check(project, self.config):
                if not project.files[f.path].suppressed(f.rule, f.line):
                    findings.append(f)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    def run(self, paths: Iterable[str]) -> list[Finding]:
        """Lint files/trees."""
        return self.check(Project.build(paths))


def lint_source(
    source: str,
    path: str = "repro/core/_snippet.py",
    config: LintConfig | None = None,
) -> list[Finding]:
    """Lint one source string as a one-file project living at ``path``
    (``path`` scopes the zone rules)."""
    project = Project.from_sources([(path, source)])
    return LintEngine(config or LintConfig()).check(project)
