"""The committed findings baseline: grandfathered, justified, ratcheting.

The baseline is how intentional exceptions stay *visible*: every entry
carries a one-line ``reason`` (loading rejects entries without one), is
matched by content fingerprint ``(rule, path, stripped source line)``
rather than line number (so it survives unrelated edits), and ratchets
down -- an entry whose finding disappeared is reported as *stale* so it
can be deleted, and ``repro lint`` never adds entries silently
(``--write-baseline`` is an explicit act, and new entries get a
placeholder reason that the loader refuses until a human justifies it).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field

from repro.lint.project import Finding

__all__ = ["BaselineEntry", "Baseline", "BaselineResult", "find_default_baseline"]

#: filename looked up from the scanned tree's ancestors by default
BASELINE_NAME = ".lint-baseline.json"

#: reason the writer leaves on brand-new entries; the loader rejects it
PLACEHOLDER_REASON = "TODO: justify this exception"


@dataclass
class BaselineEntry:
    """One grandfathered finding with its justification."""

    rule: str
    path: str
    snippet: str
    reason: str
    count: int = 1

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        """Content identity matched against :attr:`Finding.fingerprint`."""
        return (self.rule, self.path, self.snippet)

    def to_dict(self) -> dict:
        """JSON form; ``count`` is omitted when 1."""
        d = {
            "rule": self.rule,
            "path": self.path,
            "snippet": self.snippet,
            "reason": self.reason,
        }
        if self.count != 1:
            d["count"] = self.count
        return d


@dataclass
class BaselineResult:
    """Partition of a run's findings against the baseline."""

    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale: list[BaselineEntry] = field(default_factory=list)


class Baseline:
    """Load, apply, and write the grandfather file."""

    def __init__(self, entries: list[BaselineEntry] | None = None):
        self.entries = entries or []

    @classmethod
    def load(cls, path: str) -> "Baseline":
        """Parse a baseline file, rejecting unjustified entries."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or data.get("version") != 1:
            raise ValueError(f"{path}: unsupported baseline format")
        entries: list[BaselineEntry] = []
        for i, raw in enumerate(data.get("entries", [])):
            missing = {"rule", "path", "snippet", "reason"} - set(raw)
            if missing:
                raise ValueError(
                    f"{path}: entry {i} missing fields {sorted(missing)}"
                )
            reason = str(raw["reason"]).strip()
            if not reason or reason == PLACEHOLDER_REASON:
                raise ValueError(
                    f"{path}: entry {i} ({raw['rule']} {raw['path']}) has no "
                    f"justification; every baseline entry needs a reason"
                )
            entries.append(BaselineEntry(
                rule=raw["rule"],
                path=raw["path"],
                snippet=raw["snippet"],
                reason=reason,
                count=int(raw.get("count", 1)),
            ))
        return cls(entries)

    def apply(
        self,
        findings: list[Finding],
        active_rules: set[str] | None = None,
    ) -> BaselineResult:
        """Split findings into new vs grandfathered; unmatched entries
        are stale (the code improved -- delete them).

        ``active_rules`` names the rules this run actually executed;
        entries for rules that did *not* run (a ``--select`` or
        ``--ignore`` subset) are left untouched instead of being
        misreported as stale.  None means every rule ran.
        """
        budget: Counter = Counter()
        for e in self.entries:
            budget[e.fingerprint] += e.count
        res = BaselineResult()
        used: Counter = Counter()
        for f in findings:
            fp = f.fingerprint
            if used[fp] < budget.get(fp, 0):
                used[fp] += 1
                res.baselined.append(f)
            else:
                res.new.append(f)
        for e in self.entries:
            if active_rules is not None and e.rule not in active_rules:
                continue
            if used.get(e.fingerprint, 0) < e.count:
                res.stale.append(e)
        return res

    @classmethod
    def from_findings(
        cls, findings: list[Finding], previous: "Baseline | None" = None
    ) -> "Baseline":
        """Build a baseline covering ``findings``, keeping reasons from
        ``previous`` where fingerprints still match; new entries get the
        placeholder reason (which the loader rejects until edited)."""
        reasons = {
            e.fingerprint: e.reason for e in (previous.entries if previous else [])
        }
        counts: Counter = Counter(f.fingerprint for f in findings)
        entries = [
            BaselineEntry(
                rule=rule,
                path=path,
                snippet=snippet,
                reason=reasons.get((rule, path, snippet), PLACEHOLDER_REASON),
                count=n,
            )
            for (rule, path, snippet), n in sorted(counts.items())
        ]
        return cls(entries)

    def write(self, path: str) -> None:
        """Serialize to ``path`` in the committed-file format."""
        data = {
            "version": 1,
            "comment": (
                "Grandfathered repro-lint findings. Every entry needs a "
                "one-line reason; delete entries the code no longer needs "
                "(stale entries fail `repro lint`). Regenerate with "
                "`python -m repro lint --write-baseline` and re-justify."
            ),
            "entries": [e.to_dict() for e in self.entries],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=False)
            fh.write("\n")


def find_default_baseline(paths: list[str]) -> str | None:
    """Walk up from the first scanned path looking for the committed
    baseline file (like flake8 finds setup.cfg)."""
    if not paths:
        return None
    cur = os.path.abspath(paths[0])
    if os.path.isfile(cur):
        cur = os.path.dirname(cur)
    while True:
        cand = os.path.join(cur, BASELINE_NAME)
        if os.path.isfile(cand):
            return cand
        parent = os.path.dirname(cur)
        if parent == cur:
            return None
        cur = parent
