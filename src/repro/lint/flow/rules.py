"""The interprocedural ruleset F1-F4.

Each rule audits an invariant no single file can witness:

| id | name | invariant |
|----|------|-----------|
| F1 | await-atomicity     | a guard tested before ``await`` must be re-validated before acting on it |
| F2 | determinism-taint   | nondeterminism sources must not flow through call edges into deterministic zones |
| F3 | loss-typestate      | every QuorumLostError/RequestLost path ends in a handler, the STATUS_LOST mapping, or a docstring declaration |
| F4 | engine-parity       | the surface shared by both round-loop executors stays exact-integer and order-stable |

Rules are registered on import via
:func:`repro.lint.flow.engine.register_flow`; importing this module
populates the flow registry.  See DESIGN.md §3a for the mapping back to
the paper's theorems.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import (
    ASYNC_ATOMICITY_ZONES,
    DETERMINISTIC_ZONES,
    ENGINE_ARITHMETIC_ZONES,
    LOSS_BOUNDARY_ZONES,
    LOSS_SIGNALS,
    PARITY_EXEMPT_ZONES,
    PARITY_ROOTS,
    LintConfig,
    in_zone,
)
from repro.lint.engine import Finding
from repro.lint.flow.engine import FlowRule, register_flow
from repro.lint.flow.project import FunctionInfo, Project
from repro.lint.rules import SetIterationRule, UnseededRandomnessRule

__all__ = [
    "AwaitAtomicityRule",
    "DeterminismTaintRule",
    "LossTypestateRule",
    "EngineParityRule",
]


def _self_attrs(expr: ast.expr) -> set[str]:
    """Attribute names read directly off ``self`` anywhere in ``expr``."""
    out: set[str] = set()
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            out.add(node.attr)
    return out


def _expr_suspends(expr: ast.expr) -> bool:
    """True when evaluating ``expr`` can suspend the coroutine."""
    return any(
        isinstance(n, (ast.Await, ast.Yield, ast.YieldFrom))
        for n in ast.walk(expr)
    )


# ---------------------------------------------------------------------------
# F1 -- await atomicity


@register_flow
class AwaitAtomicityRule(FlowRule):
    """F1: in async service code, a shared ``self`` attribute that was
    *guard-tested* before an ``await`` and is *written* after it without
    re-validation is a check-then-act race: any other task may run -- and
    mutate the object -- across the suspension point.  The asyncio
    analogue of a lock-set detector: the "lock" held between check and
    act is the scheduler slice, and every ``await`` releases it.

    Re-reading the attribute in a test between the await and the write
    (``if self._task is not task: return``) counts as re-validation and
    clears the hazard; writes that happen before any await are atomic
    with their guard and never flagged.
    """

    id = "F1"
    name = "await-atomicity"
    severity = "error"
    zones = ASYNC_ATOMICITY_ZONES
    rationale = (
        "a guard tested before an await proves nothing after it; "
        "re-validate shared state across suspension points"
    )

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        """Flag unrevalidated guard->await->write sequences."""
        zones = config.zones_for(self.id, self.zones)
        for qname in sorted(project.functions):
            fn = project.functions[qname]
            if not fn.is_async or not in_zone(fn.relpath, zones):
                continue
            events: list[tuple[str, str | None, int]] = []
            self._events(fn.node.body, events)
            yield from self._scan(project, fn, events)

    def _scan(
        self,
        project: Project,
        fn: FunctionInfo,
        events: list[tuple[str, str | None, int]],
    ) -> Iterator[Finding]:
        tested: dict[str, tuple[int, int]] = {}  # attr -> (idx, line)
        last_await: tuple[int, int] | None = None
        for idx, (kind, attr, line) in enumerate(events):
            if kind == "test" and attr is not None:
                tested[attr] = (idx, line)
            elif kind == "await":
                last_await = (idx, line)
            elif (
                kind == "write"
                and attr is not None
                and last_await is not None
                and attr in tested
                and tested[attr][0] < last_await[0]
            ):
                yield self.finding_at(
                    project, fn.relpath, line,
                    f"'self.{attr}' was guard-tested at line "
                    f"{tested[attr][1]} but {fn.name}() awaited at line "
                    f"{last_await[1]} before this write; re-validate "
                    f"'self.{attr}' after the await (another task may "
                    "have changed it across the suspension)",
                )

    def _events(
        self,
        body: list[ast.stmt],
        out: list[tuple[str, str | None, int]],
    ) -> None:
        """Linearize guard-test / await / shared-write events in source
        order (nested defs are their own coroutine scope and skipped)."""
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, (ast.If, ast.While)):
                self._expr_events(stmt.test, out, is_test=True)
                self._events(stmt.body, out)
                self._events(stmt.orelse, out)
            elif isinstance(stmt, ast.Assert):
                self._expr_events(stmt.test, out, is_test=True)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._expr_events(stmt.iter, out, is_test=False)
                if isinstance(stmt, ast.AsyncFor):
                    out.append(("await", None, stmt.lineno))
                self._events(stmt.body, out)
                self._events(stmt.orelse, out)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._expr_events(item.context_expr, out, is_test=False)
                if isinstance(stmt, ast.AsyncWith):
                    out.append(("await", None, stmt.lineno))
                self._events(stmt.body, out)
            elif isinstance(stmt, ast.Try):
                self._events(stmt.body, out)
                for h in stmt.handlers:
                    self._events(h.body, out)
                self._events(stmt.orelse, out)
                self._events(stmt.finalbody, out)
            else:
                # simple statement: expression events first (the value
                # is evaluated before the store), then writes
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._expr_events(child, out, is_test=False)
                if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        stmt.targets
                        if isinstance(stmt, ast.Assign)
                        else [stmt.target]
                    )
                    for tgt in targets:
                        elts = (
                            tgt.elts
                            if isinstance(tgt, (ast.Tuple, ast.List))
                            else [tgt]
                        )
                        for t in elts:
                            if (
                                isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"
                            ):
                                out.append(("write", t.attr, stmt.lineno))

    @staticmethod
    def _expr_events(
        expr: ast.expr,
        out: list[tuple[str, str | None, int]],
        is_test: bool,
    ) -> None:
        if is_test:
            for attr in sorted(_self_attrs(expr)):
                out.append(("test", attr, expr.lineno))
        if _expr_suspends(expr):
            out.append(("await", None, expr.lineno))


# ---------------------------------------------------------------------------
# F2 -- interprocedural determinism taint


@register_flow
class DeterminismTaintRule(FlowRule):
    """F2: the interprocedural closure of D2.  A function that draws
    unseeded randomness or reads the wall clock is legal in the
    workload/fault packages (D2 relaxes function-scope draws there) --
    but only as long as nothing in a deterministic zone calls it.  This
    rule walks the call graph to close that laundering hole, and adds
    ``os.environ`` reads as a source D2 does not track: the process
    environment is external input, so a deterministic-zone read of it
    splits behaviour between hosts.

    Sources inside deterministic zones that D2 already flags per-file
    (unseeded draws, wall clock) are *not* duplicated here; F2 reports
    only what the file tier cannot see.
    """

    id = "F2"
    name = "determinism-taint"
    severity = "error"
    zones = DETERMINISTIC_ZONES
    rationale = (
        "randomness laundered through a helper call is still "
        "randomness; taint flows along call edges into the protocol"
    )

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        """Flag nondeterminism sources reachable from deterministic
        zones through the call graph."""
        det_zones = config.zones_for(self.id, self.zones)
        d2 = UnseededRandomnessRule()
        maps_cache: dict[str, dict] = {}
        for qname in sorted(project.functions):
            fn = project.functions[qname]
            ctx = project.files.get(fn.relpath)
            if ctx is None:
                continue
            maps = maps_cache.get(fn.relpath)
            if maps is None:
                maps = maps_cache[fn.relpath] = d2.alias_maps(ctx.tree)
            fn_in_det = in_zone(fn.relpath, det_zones)
            for line, desc, kind in self._sources(fn, maps, ctx):
                if kind == "rng" and fn_in_det:
                    continue  # the per-file D2 rule's jurisdiction
                if fn_in_det:
                    yield self.finding_at(
                        project, fn.relpath, line,
                        f"{desc} inside a deterministic zone; resolve it "
                        "once at a construction-time boundary and pass "
                        "the value in",
                    )
                    continue
                chain = project.shortest_caller_chain(
                    qname,
                    lambda q: in_zone(
                        project.functions[q].relpath, det_zones
                    ),
                )
                if chain is None:
                    continue  # never called from a deterministic zone
                yield self.finding_at(
                    project, fn.relpath, line,
                    f"{desc}, and {fn.name}() is reachable from the "
                    f"deterministic zone: {' -> '.join(chain)}; thread "
                    "an explicit seed/value through the call chain",
                )

    @staticmethod
    def _sources(
        fn: FunctionInfo, maps: dict, ctx
    ) -> list[tuple[int, str, str]]:
        """(line, description, kind) nondeterminism sources in ``fn``."""
        d2 = UnseededRandomnessRule()
        os_aliases: set[str] = maps["os"]
        environ_bases = {f"{a}.environ" for a in os_aliases} | {"environ"}
        getenv_names = {f"{a}.getenv" for a in os_aliases} | {"getenv"}
        out: list[tuple[int, str, str]] = []
        seen: set[int] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                msg = d2.classify_call(node, maps)
                if msg is not None and node.lineno not in seen:
                    seen.add(node.lineno)
                    out.append((node.lineno, msg, "rng"))
                    continue
                name = _dotted(node.func)
                if name in getenv_names or (
                    name is not None
                    and name.rpartition(".")[0] in environ_bases
                ):
                    if node.lineno not in seen:
                        seen.add(node.lineno)
                        out.append((
                            node.lineno,
                            "reads the process environment "
                            "(os.environ/getenv)",
                            "env",
                        ))
            elif isinstance(node, ast.Subscript):
                name = _dotted(node.value)
                if name in environ_bases and node.lineno not in seen:
                    seen.add(node.lineno)
                    out.append((
                        node.lineno,
                        "reads the process environment (os.environ)",
                        "env",
                    ))
        out.sort()
        return out


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


# ---------------------------------------------------------------------------
# F3 -- loss-signal typestate


@register_flow
class LossTypestateRule(FlowRule):
    """F3: the interprocedural closure of D6.  ``QuorumLostError`` is a
    machine fact (a shard lost its write/read majority); the service
    maps it to ``STATUS_LOST``/:class:`RequestLost` so clients see a
    *retriable* error, never a silent wrong answer.  This rule computes
    the transitive may-raise set of every function (masking call sites
    covered by a matching ``except``, including through the project's
    exception hierarchy) and requires each public service-boundary
    function either to handle the signal or to declare it ("Raises
    QuorumLostError") in its docstring.
    """

    id = "F3"
    name = "loss-typestate"
    severity = "error"
    zones = LOSS_BOUNDARY_ZONES
    rationale = (
        "every quorum-loss path must end in a handler, the STATUS_LOST "
        "mapping, or a documented raise -- never an accidental escape"
    )

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        """Flag undeclared loss-signal escapes at zone boundaries."""
        zones = config.zones_for(self.id, self.zones)
        tracked = set(LOSS_SIGNALS)
        escapes = self._escape_sets(project, tracked)
        for qname in sorted(project.functions):
            fn = project.functions[qname]
            if not in_zone(fn.relpath, zones) or not fn.is_public:
                continue
            if fn.cls is not None and fn.cls.startswith("_"):
                continue
            for exc in sorted(escapes.get(qname, {})):
                if exc in fn.docstring:
                    continue  # declared raiser: callers are on notice
                root, entry = escapes[qname][exc]
                via = f" (enters via {entry})" if entry else ""
                yield self.finding_at(
                    project, fn.relpath, fn.line,
                    f"{exc} can escape {fn.name}() unhandled and "
                    f"undeclared: {root}{via}; catch it, map it to "
                    f"STATUS_LOST, or declare 'Raises {exc}' in the "
                    "docstring",
                )

    @staticmethod
    def _covered(
        project: Project, exc: str, handled: frozenset[str]
    ) -> bool:
        if not handled:
            return False
        names = (
            {exc, "Exception", "BaseException"}
            | project.exception_ancestors(exc)
        )
        return bool(handled & names)

    def _escape_sets(
        self, project: Project, tracked: set[str]
    ) -> dict[str, dict[str, tuple[str, str]]]:
        """qname -> {exc -> (raise-site text, boundary entry text)}."""
        esc: dict[str, dict[str, tuple[str, str]]] = {
            q: {} for q in project.functions
        }
        for qname, fn in project.functions.items():
            for r in fn.raises:
                if r.exc in tracked and not self._covered(
                    project, r.exc, r.handled
                ):
                    esc[qname].setdefault(
                        r.exc, (f"raised at {fn.relpath}:{r.line}", "")
                    )
        changed = True
        while changed:
            changed = False
            for qname in sorted(project.functions):
                fn = project.functions[qname]
                for site in fn.calls:
                    if site.callee is None or site.callee == qname:
                        continue
                    for exc, (root, _entry) in esc.get(
                        site.callee, {}
                    ).items():
                        if exc in esc[qname]:
                            continue
                        if self._covered(project, exc, site.handled):
                            continue
                        esc[qname][exc] = (
                            root,
                            f"{site.text}() at {fn.relpath}:{site.line}",
                        )
                        changed = True
        return esc


# ---------------------------------------------------------------------------
# F4 -- engine-parity surface


@register_flow
class EngineParityRule(FlowRule):
    """F4: the scalar oracle and the vectorized executor are pinned
    op-for-op by the differential harness, which only holds if every
    function *both* engines reach stays exact-integer and
    order-insensitive.  Float arithmetic on that shared surface can
    round differently between a python scalar and a numpy array path;
    set iteration can reorder between runs.  Instrumentation sinks
    (stats sketches, the obs layer) are exempt -- their float math never
    feeds simulation state.
    """

    id = "F4"
    name = "engine-parity"
    severity = "error"
    zones = ENGINE_ARITHMETIC_ZONES
    rationale = (
        "code shared by the scalar and vector engines must stay exact "
        "and order-stable or the executors can silently diverge"
    )

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        """Flag float/order-sensitive ops on the shared engine surface."""
        roots = config.parity_roots or PARITY_ROOTS
        present = [r for r in roots if r in project.functions]
        if len(present) < 2:
            return  # no dual-engine surface in this tree
        per_root = [project.reachable_from([r]) for r in present]
        shared = set.intersection(*per_root)
        exempt = ENGINE_ARITHMETIC_ZONES + PARITY_EXEMPT_ZONES
        root_names = " and ".join(
            r.rsplit("::", 1)[1] for r in present
        )
        d1_cache: dict[str, list[Finding]] = {}
        for qname in sorted(shared):
            fn = project.functions[qname]
            if in_zone(fn.relpath, exempt):
                continue
            for line, desc in self._dirty_ops(project, fn, d1_cache):
                yield self.finding_at(
                    project, fn.relpath, line,
                    f"{desc} in {fn.name}(), which both engine roots "
                    f"({root_names}) reach; keep the shared surface "
                    "exact-integer and order-stable, or exempt the "
                    "module explicitly",
                )

    @staticmethod
    def _dirty_ops(
        project: Project,
        fn: FunctionInfo,
        d1_cache: dict[str, list[Finding]],
    ) -> list[tuple[int, str]]:
        """Float arithmetic + order-sensitive iteration inside ``fn``."""
        out: list[tuple[int, str]] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                out.append((node.lineno, "true division (float result)"))
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.Div
            ):
                out.append((node.lineno, "/= (float result)"))
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, float
            ):
                out.append((node.lineno, f"float literal {node.value!r}"))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                out.append((node.lineno, "float() conversion"))
        # order-sensitive set iteration: reuse the D1 detector on the
        # containing file, filtered to this function's span
        if fn.relpath not in d1_cache:
            ctx = project.files.get(fn.relpath)
            d1_cache[fn.relpath] = (
                list(SetIterationRule().check(ctx)) if ctx else []
            )
        end = getattr(fn.node, "end_lineno", fn.node.lineno) or fn.node.lineno
        for f in d1_cache[fn.relpath]:
            if fn.node.lineno <= f.line <= end:
                out.append((f.line, "order-sensitive set iteration"))
        return sorted(set(out))
