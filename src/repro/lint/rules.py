"""The determinism ruleset: one :class:`Rule` base, one rule list.

Every rule sees the whole :class:`~repro.lint.project.Project` built
once per run.  Per-file rules implement :meth:`Rule.check_file` and
inherit the zone-filtered loop over ``project.files``; whole-program
rules override :meth:`Rule.check`.  Each rule encodes one invariant the
conformance checker and the fault campaigns silently rely on; see
DESIGN.md §3a for the mapping back to the paper.

| id | name | invariant |
|----|------|-----------|
| D1 | set-iteration        | no order-sensitive iteration over sets in deterministic zones |
| D3 | float-arithmetic     | no float literals / true division in field + coset algebra |
| D4 | obs-api              | deterministic code calls only ``obs.span`` / ``emit`` / ``enabled`` / ``set_*`` and the record types |
| D5 | mutable-shared-state | no mutable default args / module-level mutable accumulators |
| F1 | await-atomicity      | a guard tested before ``await`` must be re-validated before acting on it |
| F2 | determinism-taint    | no unseeded RNG / wall-clock calls outside workload+fault plan code, and no such source or ``os.environ`` read flows through call edges into deterministic zones |
| F3 | loss-typestate       | no broad/bare excepts on protocol paths; QuorumLostError is never swallowed; every loss-signal path at the service boundary ends in a handler, the STATUS_LOST mapping, or a docstring declaration |
| F4 | engine-parity        | the surface shared by both round-loop executors stays exact-integer and order-stable |

:data:`RULES` is the rule list, in id order.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import (
    ASYNC_ATOMICITY_ZONES,
    DETERMINISTIC_ZONES,
    ENGINE_ARITHMETIC_ZONES,
    FIELD_ARITHMETIC_ZONES,
    LOSS_BOUNDARY_ZONES,
    LOSS_SIGNALS,
    PARITY_EXEMPT_ZONES,
    PARITY_ROOTS,
    PROTOCOL_ZONES,
    RANDOMNESS_ALLOWED_ZONES,
    LintConfig,
    in_zone,
)
from repro.lint.project import (
    FileContext,
    Finding,
    FunctionInfo,
    Project,
    dotted_name,
    handler_names,
)

__all__ = [
    "Rule",
    "RULES",
    "SetIterationRule",
    "FloatArithmeticRule",
    "ObservabilityApiRule",
    "MutableSharedStateRule",
    "AwaitAtomicityRule",
    "DeterminismTaintRule",
    "LossTypestateRule",
    "EngineParityRule",
]


class Rule:
    """Base class for lint rules."""

    id: str = ""
    name: str = ""
    severity: str = "error"
    #: path prefixes the rule applies to; () = every scanned file
    zones: tuple[str, ...] = ()
    #: one-line invariant statement for docs / ``--list-rules``
    rationale: str = ""

    def __repr__(self) -> str:
        """Address-free, so the generated API docs are reproducible."""
        return f"{type(self).__name__}()"

    def files(
        self, project: Project, config: LintConfig
    ) -> Iterator[FileContext]:
        """The project's files inside the rule's (possibly overridden)
        zones."""
        zones = config.zones_for(self.id, self.zones)
        for relpath, ctx in project.files.items():
            if not zones or in_zone(relpath, zones):
                yield ctx

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        """Yield every violation of this rule in the project."""
        for ctx in self.files(project, config):
            yield from self.check_file(ctx)

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        """Yield every violation of a per-file rule in one parsed file."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# D1 -- set iteration


#: consuming these preserves determinism even over an unordered input
_ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "sorted", "len", "sum", "min", "max", "any", "all",
    "set", "frozenset",
})

#: these materialize the (arbitrary) iteration order into ordered data
_ORDER_SENSITIVE_CONSUMERS = frozenset({
    "list", "tuple", "iter", "enumerate", "reversed", "deque",
})

_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})


class SetIterationRule(Rule):
    """D1: iterating a ``set`` materializes an arbitrary (hash-seed
    dependent) order.  In the deterministic zones every such loop or
    conversion must go through ``sorted(...)`` -- the PRAM conformance
    guarantee is bit-identical replay, and one unordered walk of a
    coset set is enough to reorder a whole protocol schedule."""

    id = "D1"
    name = "set-iteration"
    zones = DETERMINISTIC_ZONES
    rationale = (
        "set/frozenset iteration order is arbitrary; deterministic zones "
        "must sort before iterating"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag order-sensitive walks of locally set-typed values."""
        for scope in self._scopes(ctx.tree):
            known = self._set_typed_names(scope)
            yield from self._check_scope(ctx, scope, known)

    @staticmethod
    def _scopes(tree: ast.Module) -> list[ast.AST]:
        return [tree] + [
            n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def _set_typed_names(self, scope: ast.AST) -> set[str]:
        """Names locally known to hold a set: assigned from a set
        expression or annotated ``set[...]`` / ``frozenset[...]``."""
        known: set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for a in (
                args.posonlyargs + args.args + args.kwonlyargs
            ):
                if a.annotation is not None and _annotation_is_set(a.annotation):
                    known.add(a.arg)
        # two passes so `a = {...}; b = a` resolves
        for _ in range(2):
            for node in self._scope_body_walk(scope):
                if isinstance(node, ast.Assign) and self._is_set_expr(
                    node.value, known
                ):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            known.add(tgt.id)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if _annotation_is_set(node.annotation) or (
                        node.value is not None
                        and self._is_set_expr(node.value, known)
                    ):
                        known.add(node.target.id)
        return known

    @staticmethod
    def _scope_body_walk(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested functions."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _is_set_expr(self, node: ast.expr, known: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in known
        if isinstance(node, ast.Call):
            fn = dotted_name(node.func)
            if fn in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and self._is_set_expr(node.func.value, known)
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, known) or self._is_set_expr(
                node.right, known
            )
        return False

    def _check_scope(
        self, ctx: FileContext, scope: ast.AST, known: set[str]
    ) -> Iterator[Finding]:
        for node in self._scope_body_walk(scope):
            if isinstance(node, ast.For) and self._is_set_expr(
                node.iter, known
            ):
                yield ctx.finding(
                    self, node,
                    "for-loop over a set; iterate sorted(...) instead",
                )
            elif isinstance(
                node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)
            ):
                # building a *set* from a set is order-insensitive, and
                # so is a generator consumed by sum/any/all/...; flag
                # the rest
                if isinstance(node, ast.GeneratorExp):
                    parent = ctx.parent(node)
                    if (
                        isinstance(parent, ast.Call)
                        and dotted_name(parent.func)
                        in _ORDER_INSENSITIVE_CONSUMERS
                    ):
                        continue
                for gen in node.generators:
                    if self._is_set_expr(gen.iter, known):
                        yield ctx.finding(
                            self, node,
                            "comprehension over a set materializes an "
                            "arbitrary order; sort the iterable",
                        )
                        break
            elif isinstance(node, ast.Call):
                fn = dotted_name(node.func)
                if (
                    fn in _ORDER_SENSITIVE_CONSUMERS
                    and node.args
                    and self._is_set_expr(node.args[0], known)
                ):
                    yield ctx.finding(
                        self, node,
                        f"{fn}() over a set materializes an arbitrary "
                        "order; sort first",
                    )


def _annotation_is_set(ann: ast.expr) -> bool:
    if isinstance(ann, ast.Subscript):
        return _annotation_is_set(ann.value)
    if isinstance(ann, ast.Name):
        return ann.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
    if isinstance(ann, ast.Attribute):
        return ann.attr in ("Set", "FrozenSet", "AbstractSet")
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        head = ann.value.split("[", 1)[0].strip()
        return head in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
    return False


# ---------------------------------------------------------------------------
# D3 -- float arithmetic in field code


class FloatArithmeticRule(Rule):
    """D3: GF(2^m) codes and PGL2 coset indices are exact integers; one
    float round-trip (a true division, a float literal promotion)
    silently corrupts codes above 2^53 and breaks bit-identical
    addressing.  Integer contexts use ``//``, exact ``pow``, and
    bit ops."""

    id = "D3"
    name = "float-arithmetic"
    zones = FIELD_ARITHMETIC_ZONES + ENGINE_ARITHMETIC_ZONES
    rationale = (
        "field/coset arithmetic must stay in exact integers; floats lose "
        "exactness above 2^53"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag float literals, ``float()`` calls, and true division."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                yield ctx.finding(
                    self, node,
                    "true division returns float; use // for exact "
                    "integer arithmetic",
                )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.Div
            ):
                yield ctx.finding(
                    self, node, "/= returns float; use //= instead",
                )
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)
            ):
                yield ctx.finding(
                    self, node,
                    f"float literal {node.value!r} in exact-arithmetic zone",
                )
            elif isinstance(node, ast.Call) and dotted_name(node.func) == "float":
                yield ctx.finding(
                    self, node,
                    "float() conversion in exact-arithmetic zone",
                )


# ---------------------------------------------------------------------------
# D4 -- observability through the emission API only


#: what deterministic code may call on :mod:`repro.obs`: the two
#: self-guarded emission helpers, the guard, the installers and the
#: record types
_OBS_API = frozenset({
    "span", "emit", "enabled", "set_bus", "set_tracer", "set_ledger",
    "BatchRecord", "KvRecord",
})


class ObservabilityApiRule(Rule):
    """D4: deterministic code reaches observability only through
    ``obs.span``, ``obs.emit``, the ``obs.enabled`` guard, the ``set_*``
    installers and the record types.  ``span`` and ``emit`` guard
    themselves, so the disabled hot path pays one boolean check per site
    (the <5% budget of ``tests/obs/test_overhead.py``); every other view
    -- trace events, metrics, the ledger, the bus -- is derived inside
    :mod:`repro.obs` from the batch records.  Any other call into
    ``repro.obs`` (``tracer()``, ``metrics()``, ``metrics_enabled()``,
    ``ledger()``, ``bus()``, ``publish``) is a finding, guarded or not."""

    id = "D4"
    name = "obs-api"
    zones = DETERMINISTIC_ZONES
    rationale = (
        "a batch is described once, by the record handed to obs.emit; a "
        "side channel restates it and costs the disabled path"
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        """Flag every call into ``repro.obs`` outside :data:`_OBS_API`."""
        for ctx in self.files(project, config):
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = project.qualify(ctx.relpath, node.func) or ""
                module, _, attr = name.rpartition(".")
                if module == "repro.obs" and attr not in _OBS_API:
                    yield ctx.finding(
                        self, node,
                        f"obs.{attr}() outside repro.obs; describe the "
                        "batch in the record handed to obs.emit, or open "
                        "an obs.span",
                    )


# ---------------------------------------------------------------------------
# D5 -- mutable shared state


_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter",
    "OrderedDict",
})


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = dotted_name(node.func)
        return fn is not None and fn.split(".")[-1] in _MUTABLE_CONSTRUCTORS
    return False


def _is_empty_container(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Set)) and not node.elts:
        return True
    if isinstance(node, ast.Dict) and not node.keys:
        return True
    if isinstance(node, ast.Call) and not node.args and not node.keywords:
        fn = dotted_name(node.func)
        return fn is not None and fn.split(".")[-1] in _MUTABLE_CONSTRUCTORS
    return False


class MutableSharedStateRule(Rule):
    """D5: mutable default arguments alias one object across calls, and
    module-level mutable accumulators couple runs through import order
    -- both leak state between what should be independent, replayable
    simulations.  Constant-styled (UPPER_CASE) module tables are exempt
    unless they start *empty*, which marks an accumulator, not a
    table."""

    id = "D5"
    name = "mutable-shared-state"
    zones = ()  # everywhere under the scanned tree
    rationale = (
        "shared mutable state couples batches/runs that the paper's model "
        "treats as independent"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag mutable defaults and module-level mutable bindings."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for default in list(args.defaults) + [
                    d for d in args.kw_defaults if d is not None
                ]:
                    if _is_mutable_literal(default):
                        yield ctx.finding(
                            self, default,
                            f"mutable default argument in {node.name}(); "
                            "use None and allocate inside",
                        )
        for stmt in ctx.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_literal(value):
                continue
            for tgt in targets:
                if not isinstance(tgt, ast.Name):
                    continue
                if tgt.id.startswith("__") and tgt.id.endswith("__"):
                    continue  # __all__ and friends: interpreter protocol
                constant_styled = tgt.id.lstrip("_").isupper()
                if constant_styled and not _is_empty_container(value):
                    continue  # immutable-by-convention lookup table
                yield ctx.finding(
                    self, stmt,
                    f"module-level mutable state {tgt.id!r}; pass state "
                    "explicitly or document+baseline a deliberate cache",
                )


# ---------------------------------------------------------------------------
# F1 -- await atomicity


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


class AwaitAtomicityRule(Rule):
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

    def check(
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
                yield project.files[fn.relpath].finding_at(
                    self, line,
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
# F2 -- unseeded randomness, wall clock and environment taint


#: wall-clock reads; perf_counter/monotonic/process_time are duration
#: measurements and stay legal (they never feed simulation state)
_TIME_FNS = frozenset({"time", "time_ns", "localtime", "ctime", "monotonic_ns"})
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})
_ENTROPY_MODULES = ("secrets",)
#: numpy.random constructors that are deterministic given a seed
#: argument, like default_rng (a SeedSequence's seed is its entropy)
_SEEDABLE_BITGENS = frozenset(
    {"SeedSequence", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}
)
#: keywords that pass their seed (None: a ``**`` splat, which may)
_SEED_KEYWORDS = frozenset({"seed", "entropy", None})


def _draw(call: ast.Call, name: str) -> str | None:
    """Why a call to the import-resolved ``name`` is an unseeded draw
    or a wall-clock read, or None when it is neither."""
    module, _, fn = name.rpartition(".")
    if module == "random":
        if fn == "Random" and call.args:
            return None  # explicitly seeded generator object
        return (
            f"random.{fn}() draws from implicit global state; use an "
            "explicitly seeded random.Random(seed)"
        )
    if module == "numpy.random":
        if fn == "Generator":
            return None  # wrapping an explicit BitGenerator
        if fn != "default_rng" and fn not in _SEEDABLE_BITGENS:
            return (
                f"numpy.random.{fn}() uses the legacy global state; use a "
                "seeded default_rng(seed)"
            )
        if call.args or any(k.arg in _SEED_KEYWORDS for k in call.keywords):
            return None
        return (
            f"{fn}() without a seed is nondeterministic; pass an "
            "explicit seed"
        )
    if module == "time":
        if fn == "gmtime" and (call.args or call.keywords):
            return None  # formatting a supplied timestamp
        if fn in _TIME_FNS or fn == "gmtime":
            return (
                f"time.{fn}() reads the wall clock; timestamps must come "
                "from the logical clock or caller input"
            )
        return None
    if name == "os.urandom":
        return "os.urandom() is non-reproducible entropy"
    if module == "uuid" and fn in ("uuid1", "uuid4"):
        return f"uuid.{fn}() is non-reproducible"
    if module.split(".")[0] in _ENTROPY_MODULES:
        return f"{name}() is non-reproducible entropy"
    if fn in _DATETIME_FNS and (
        module.split(".")[0] == "datetime" or module == "date"
    ):
        return (
            f"datetime {fn}() reads the wall clock; pass timestamps "
            "explicitly"
        )
    return None


class DeterminismTaintRule(Rule):
    """F2: every random draw must come from an explicitly seeded
    generator, nothing may read the wall clock into simulation state,
    and no such source -- nor an ``os.environ`` read -- may reach a
    deterministic zone through a call edge.

    * An unseeded draw or wall-clock read is a finding anywhere, except
      inside a function in ``repro/workloads`` and ``repro/faults``:
      those packages construct randomized *plans* from caller-provided
      seeds, so function-level draws are legal there (module-level
      entropy never is).
    * Such a legal draw is still a finding when something in a
      deterministic zone calls its function: the rule walks the call
      graph to the nearest deterministic-zone caller and reports that
      witness chain, closing the laundering hole.  The same holds for
      any source in a function outside the deterministic zones.
    * ``os.environ`` / ``os.getenv`` reads are external input, so a read
      in a deterministic zone, or reachable from one, splits behaviour
      between hosts.
    """

    id = "F2"
    name = "determinism-taint"
    severity = "error"
    zones = DETERMINISTIC_ZONES
    rationale = (
        "identical request sequences must replay bit-identically; entropy "
        "enters only through explicit seeds, never through a helper call"
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        """Flag unseeded draws, wall-clock reads, and sources reachable
        from deterministic zones through the call graph."""
        det_zones = config.zones_for(self.id, self.zones)
        owners = {fn.node: fn for fn in project.functions.values()}

        def in_det(qname: str) -> bool:
            return in_zone(project.functions[qname].relpath, det_zones)

        for relpath, ctx in project.files.items():
            relaxed = in_zone(relpath, RANDOMNESS_ALLOWED_ZONES)
            det_file = in_zone(relpath, det_zones)
            seen: set[int] = set()
            for node in ast.walk(ctx.tree):
                source = self._source(project, relpath, node)
                if source is None:
                    continue
                kind, desc = source
                if kind == "draw" and not (
                    relaxed and ctx.enclosing_function(node) is not None
                ):
                    yield ctx.finding(self, node, desc)
                fn = next(
                    (owners[a] for a in ctx.ancestors(node) if a in owners),
                    None,
                )
                if fn is None or node.lineno in seen:
                    continue
                seen.add(node.lineno)
                if det_file:
                    if kind == "env":
                        yield ctx.finding_at(
                            self, node.lineno,
                            f"{desc} inside a deterministic zone; resolve "
                            "it once at a construction-time boundary and "
                            "pass the value in",
                        )
                    continue
                chain = project.shortest_caller_chain(fn.qname, in_det)
                if chain is not None:
                    yield ctx.finding_at(
                        self, node.lineno,
                        f"{desc}, and {fn.name}() is reachable from the "
                        f"deterministic zone: {' -> '.join(chain)}; thread "
                        "an explicit seed/value through the call chain",
                    )

    @staticmethod
    def _source(
        project: Project, relpath: str, node: ast.AST
    ) -> tuple[str, str] | None:
        """``(kind, description)`` when ``node`` is a nondeterminism
        source: kind ``draw`` (unseeded draw, wall clock) or ``env``."""
        if isinstance(node, ast.Call):
            name = project.qualify(relpath, node.func)
            if name is None:
                return None
            desc = _draw(node, name)
            if desc is not None:
                return "draw", desc
            if name == "os.getenv" or name.rpartition(".")[0] == "os.environ":
                return "env", "reads the process environment (os.environ/getenv)"
        elif (
            isinstance(node, ast.Subscript)
            and project.qualify(relpath, node.value) == "os.environ"
        ):
            return "env", "reads the process environment (os.environ)"
        return None


# ---------------------------------------------------------------------------
# F3 -- exception hygiene and loss-signal typestate


_BROAD = frozenset({"Exception", "BaseException"})


class LossTypestateRule(Rule):
    """F3: a lost quorum surfaces as an error, never as a silently wrong
    answer.  ``QuorumLostError`` is a machine fact (a shard lost its
    write/read majority); the service maps it to
    ``STATUS_LOST``/:class:`RequestLost` so clients see a *retriable*
    error -- the exact failure mode the q/2 threshold campaigns exist to
    rule out.

    * A handler that swallows ``QuorumLostError`` (a body of ``pass``)
      is a finding everywhere.
    * On protocol paths (``PROTOCOL_ZONES``) a bare ``except``, or a
      broad one without a re-raise, can absorb the signal and is a
      finding.
    * The typestate: the rule computes the transitive may-raise set of
      every function (masking call sites covered by a matching
      ``except``, including through the project's exception hierarchy)
      and requires each public service-boundary function either to
      handle the signal or to declare it ("Raises QuorumLostError") in
      its docstring.
    """

    id = "F3"
    name = "loss-typestate"
    severity = "error"
    zones = LOSS_BOUNDARY_ZONES
    rationale = (
        "every quorum-loss path must end in a handler, the STATUS_LOST "
        "mapping, or a documented raise -- never a swallow or an "
        "accidental escape"
    )

    def check(
        self, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        """Flag swallowed or broadly caught loss signals, and undeclared
        escapes at zone boundaries."""
        for ctx in project.files.values():
            yield from self._hygiene(ctx)
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
                yield project.files[fn.relpath].finding_at(
                    self, fn.line,
                    f"{exc} can escape {fn.name}() unhandled and "
                    f"undeclared: {root}{via}; catch it, map it to "
                    f"STATUS_LOST, or declare 'Raises {exc}' in the "
                    "docstring",
                )

    def _hygiene(self, ctx: FileContext) -> Iterator[Finding]:
        """Swallowed quorum losses anywhere; bare/broad handlers without
        a re-raise on protocol paths."""
        in_protocol = in_zone(ctx.relpath, PROTOCOL_ZONES)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = handler_names(node)
            if "QuorumLostError" in names and all(
                isinstance(s, (ast.Pass, ast.Continue))
                or (isinstance(s, ast.Expr)
                    and isinstance(s.value, ast.Constant))
                for s in node.body
            ):
                yield ctx.finding(
                    self, node,
                    "QuorumLostError swallowed; degraded results must "
                    "propagate or be reported",
                )
            elif not in_protocol:
                continue
            elif node.type is None:
                yield ctx.finding(
                    self, node,
                    "bare except on a protocol path; catch specific "
                    "exceptions",
                )
            elif names & _BROAD and not any(
                isinstance(s, ast.Raise) for s in ast.walk(node)
            ):
                yield ctx.finding(
                    self, node,
                    "broad except without re-raise on a protocol path; "
                    "catch specific exceptions or re-raise",
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


class EngineParityRule(Rule):
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

    def check(
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
                yield project.files[fn.relpath].finding_at(
                    self, line,
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
                list(SetIterationRule().check_file(ctx)) if ctx else []
            )
        end = getattr(fn.node, "end_lineno", fn.node.lineno) or fn.node.lineno
        for f in d1_cache[fn.relpath]:
            if fn.node.lineno <= f.line <= end:
                out.append((f.line, "order-sensitive set iteration"))
        return sorted(set(out))


#: every rule, in id order: the one list the engine, ``--list-rules``,
#: ``--select`` and the reports read
RULES: tuple[Rule, ...] = (
    SetIterationRule(),
    FloatArithmeticRule(),
    ObservabilityApiRule(),
    MutableSharedStateRule(),
    AwaitAtomicityRule(),
    DeterminismTaintRule(),
    LossTypestateRule(),
    EngineParityRule(),
)
