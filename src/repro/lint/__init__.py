"""Determinism static analysis: the ``repro lint`` AST rule engine.

The paper's value proposition is *determinism*: the PGL2(q^n)
organization and the majority protocol promise bit-identical outcomes
for identical request sequences, and both the conformance checker
(:mod:`repro.conformance`) and the fault campaigns
(:mod:`repro.faults`) are sound only under that promise.  This package
turns the repo's implicit determinism invariants into machine-checked
rules that run on every PR -- a shift-left complement to the dynamic
checkers.

### Rules

One engine runs one rule list over one whole-program model, built once
per run: per-file rules (D*) loop over its files, interprocedural rules
(F*) read its symbol table, call graph and module-dependency graph.

| id | name | zones | invariant protected |
|----|------|-------|---------------------|
| D1 | ``set-iteration`` | core, mpc, schemes, pgl, gf, kvstore, service | set iteration order is arbitrary; deterministic zones sort before iterating (protocol schedules and coset enumerations must replay bit-identically) |
| D3 | ``float-arithmetic`` | gf, pgl, core/engine.py | field/coset arithmetic and the batch-engine round loops stay in exact integers -- no float literals, ``float()``, or true division |
| D4 | ``obs-api`` | core, mpc, schemes, pgl, gf, kvstore, service | code calls ``repro.obs`` only through ``span``, ``emit``, ``enabled``, the ``set_*`` installers and the record types; every other view (tracer, metrics, ledger, bus) is derived inside ``repro.obs`` from the batch records |
| D5 | ``mutable-shared-state`` | all | no mutable default args; no module-level mutable accumulators coupling independent runs |
| F1 | ``await-atomicity`` | service, conformance | a ``self`` attribute guard-tested before an ``await`` is re-validated before it is written after it |
| F2 | ``determinism-taint`` | all (workloads/faults: module level only); call chains into deterministic zones | entropy enters only through explicit seeds; no wall-clock reads into simulation state; no unseeded draw or ``os.environ`` read reaches a deterministic zone through a call edge |
| F3 | ``loss-typestate`` | all (swallow); core, mpc, kvstore, schemes, service (broad excepts); service boundary (typestate) | ``QuorumLostError`` is never swallowed; no bare/broad excepts on protocol paths; every loss-signal path at the service boundary is handled, mapped to ``STATUS_LOST``, or declared |
| F4 | ``engine-parity`` | code reachable from both engine roots | the scalar/vectorized shared surface stays exact-integer and order-stable |

### Machinery

* :mod:`repro.lint.project` -- the :class:`~repro.lint.project.Project`
  model: the only parser (files that do not parse become ``E0``
  findings), the import index, symbols, call graph, module graph,
  :class:`~repro.lint.project.Finding` and the per-file
  :class:`~repro.lint.project.FileContext` with ``# noqa: Dx``
  suppression;
* :mod:`repro.lint.rules` -- the :class:`~repro.lint.rules.Rule` base
  and the rule list :data:`~repro.lint.rules.RULES`;
* :mod:`repro.lint.engine` -- :class:`~repro.lint.engine.LintEngine`
  (one project, every enabled rule) and :func:`lint_source`;
* :mod:`repro.lint.config` -- the zone map (which invariant holds
  where) and run configuration;
* :mod:`repro.lint.baseline` -- the committed grandfather file
  (``.lint-baseline.json``): content-fingerprint matched, every entry
  requires a one-line justification, stale entries fail the run so the
  set only ratchets down;
* :mod:`repro.lint.report` -- text/JSON/markdown renderers
  (``tools/lint_report.py`` turns the JSON into
  ``benchmarks/results/lint_report.md``);
* :mod:`repro.lint.cli` -- ``repro lint`` (also ``python -m
  repro.lint``): exit 0 clean / 1 findings / 2 usage error.

The typing half of the gate lives in ``tools/typecheck.py``: a
stdlib annotation-coverage ratchet (strict tier: ``repro/gf`` and
``repro/core`` at 100% public-API annotation coverage) plus an
optional mypy layer (``mypy.ini``) that CI installs and runs.
"""

from __future__ import annotations

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.config import (
    DETERMINISTIC_ZONES,
    ENGINE_ARITHMETIC_ZONES,
    FIELD_ARITHMETIC_ZONES,
    PROTOCOL_ZONES,
    RANDOMNESS_ALLOWED_ZONES,
    LintConfig,
    module_relpath,
)
from repro.lint.engine import LintEngine, lint_source
from repro.lint.project import Finding, Project
from repro.lint.report import LintResult, render_markdown
from repro.lint.rules import RULES, Rule

__all__ = [
    "Finding",
    "Project",
    "Rule",
    "RULES",
    "LintEngine",
    "LintConfig",
    "LintResult",
    "Baseline",
    "BaselineEntry",
    "lint_source",
    "module_relpath",
    "render_markdown",
    "DETERMINISTIC_ZONES",
    "RANDOMNESS_ALLOWED_ZONES",
    "FIELD_ARITHMETIC_ZONES",
    "ENGINE_ARITHMETIC_ZONES",
    "PROTOCOL_ZONES",
]

#: Emit docs/API.md with this module's full docstring -- it is the
#: static-analysis reference (rule table + machinery map).
__apidoc__ = "full"
