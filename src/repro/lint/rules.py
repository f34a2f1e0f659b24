"""The determinism ruleset D1-D6.

Each rule encodes one invariant the conformance checker (PR 4) and the
fault campaigns (PR 3) silently rely on; see DESIGN.md for the mapping
back to the paper.  Rules are registered on import via
:func:`repro.lint.engine.register`; importing this module populates the
registry.

| id | name | invariant |
|----|------|-----------|
| D1 | set-iteration        | no order-sensitive iteration over sets in deterministic zones |
| D2 | unseeded-randomness  | no unseeded RNG / wall-clock calls outside workload+fault plan code |
| D3 | float-arithmetic     | no float literals / true division in field + coset algebra |
| D4 | unguarded-obs        | instrumentation emission must sit behind an ``enabled()`` guard |
| D5 | mutable-shared-state | no mutable default args / module-level mutable accumulators |
| D6 | exception-hygiene    | no broad/bare excepts in protocol paths; never swallow QuorumLostError |
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import (
    DETERMINISTIC_ZONES,
    ENGINE_ARITHMETIC_ZONES,
    FIELD_ARITHMETIC_ZONES,
    PROTOCOL_ZONES,
    RANDOMNESS_ALLOWED_ZONES,
)
from repro.lint.engine import FileContext, Finding, Rule, register

__all__ = [
    "SetIterationRule",
    "UnseededRandomnessRule",
    "FloatArithmeticRule",
    "UnguardedObservabilityRule",
    "MutableSharedStateRule",
    "ExceptionHygieneRule",
]


# ---------------------------------------------------------------------------
# shared helpers


def _call_name(node: ast.expr) -> str | None:
    """``foo`` for ``foo(...)``, ``a.b.c`` for ``a.b.c(...)``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _call_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _module_aliases(tree: ast.Module, module: str) -> set[str]:
    """Names under which ``module`` (dotted) is reachable in this file.

    ``import repro.obs as _obs`` -> {"_obs"}; ``from repro import obs``
    -> {"obs"}; ``import repro.obs`` -> {"repro.obs"}.
    """
    aliases: set[str] = set()
    parent, _, leaf = module.rpartition(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == module:
                    aliases.add(a.asname or a.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module == parent and parent:
                for a in node.names:
                    if a.name == leaf:
                        aliases.add(a.asname or a.name)
    return aliases


def _imported_names(tree: ast.Module, module: str) -> dict[str, str]:
    """``from module import x [as y]`` bindings: local name -> attr."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for a in node.names:
                out[a.asname or a.name] = a.name
    return out


def _is_attr_of(node: ast.expr, bases: set[str]) -> bool:
    """True for ``B.attr`` where the dotted prefix ``B`` is in bases."""
    return (
        isinstance(node, ast.Attribute)
        and _call_name(node.value) in bases
    )


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


@register
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

    def check(self, ctx: FileContext) -> Iterator[Finding]:
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
            fn = _call_name(node.func)
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
                        and _call_name(parent.func)
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
                fn = _call_name(node.func)
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
# D2 -- unseeded randomness / wall clock


#: wall-clock reads; perf_counter/monotonic/process_time are duration
#: measurements and stay legal (they never feed simulation state)
_TIME_FNS = frozenset({"time", "time_ns", "localtime", "ctime", "monotonic_ns"})
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})
_ENTROPY_MODULES = ("secrets",)


@register
class UnseededRandomnessRule(Rule):
    """D2: every random draw must come from an explicitly seeded
    generator, and nothing may read the wall clock into simulation
    state.  ``repro/workloads`` and ``repro/faults`` construct
    randomized *plans* from caller-provided seeds, so function-level
    draws are legal there -- module-level entropy never is."""

    id = "D2"
    name = "unseeded-randomness"
    zones = ()  # everywhere; allowed zones relax to module-level-only
    rationale = (
        "identical request sequences must replay bit-identically; entropy "
        "enters only through explicit seeds"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag implicit-RNG and wall-clock calls per the zone policy."""
        relaxed = any(
            ctx.relpath == z or ctx.relpath.startswith(z + "/")
            for z in RANDOMNESS_ALLOWED_ZONES
        )
        maps = self.alias_maps(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            msg = self.classify_call(node, maps)
            if msg is None:
                continue
            if relaxed and ctx.enclosing_function(node) is not None:
                continue  # seeded-plan packages: function scope is fine
            yield ctx.finding(self, node, msg)

    @staticmethod
    def alias_maps(tree: ast.Module) -> dict:
        """Per-file import-alias maps the classifier resolves against.

        Built once per file; also consumed by the flow tier's F2 rule,
        which applies the same source classification interprocedurally.
        """
        np_aliases = _module_aliases(tree, "numpy")
        return {
            "random": _module_aliases(tree, "random"),
            "npr": _module_aliases(tree, "numpy.random") | {
                f"{a}.random" for a in np_aliases
            },
            "time": _module_aliases(tree, "time"),
            "datetime": _module_aliases(tree, "datetime"),
            "os": _module_aliases(tree, "os"),
            "uuid": _module_aliases(tree, "uuid"),
            "from": {
                **{k: ("random", v)
                   for k, v in _imported_names(tree, "random").items()},
                **{k: ("numpy.random", v)
                   for k, v in _imported_names(tree, "numpy.random").items()},
                **{k: ("time", v)
                   for k, v in _imported_names(tree, "time").items()},
                **{k: ("datetime", v)
                   for k, v in _imported_names(tree, "datetime").items()},
            },
        }

    def classify_call(self, node: ast.Call, maps: dict) -> str | None:
        """Classify one call against prebuilt :meth:`alias_maps`."""
        return self._classify(
            node, maps["random"], maps["npr"], maps["time"],
            maps["datetime"], maps["os"], maps["uuid"], maps["from"],
        )

    def _classify(
        self,
        node: ast.Call,
        random_aliases: set[str],
        npr_aliases: set[str],
        time_aliases: set[str],
        dt_mod_aliases: set[str],
        os_aliases: set[str],
        uuid_aliases: set[str],
        from_bindings: dict[str, tuple[str, str]],
    ) -> str | None:
        func = node.func
        name: str | None = None
        origin: str | None = None
        if isinstance(func, ast.Attribute):
            base = _call_name(func.value)
            if base in random_aliases:
                origin, name = "random", func.attr
            elif base in npr_aliases:
                origin, name = "numpy.random", func.attr
            elif base in time_aliases:
                origin, name = "time", func.attr
            elif base in os_aliases and func.attr == "urandom":
                return "os.urandom() is non-reproducible entropy"
            elif base in uuid_aliases and func.attr in ("uuid1", "uuid4"):
                return f"uuid.{func.attr}() is non-reproducible"
            elif base is not None and base.split(".")[0] in _ENTROPY_MODULES:
                return f"{base}.{func.attr}() is non-reproducible entropy"
            elif func.attr in _DATETIME_FNS:
                head = _call_name(func.value)
                if head and (
                    head in dt_mod_aliases
                    or head.split(".")[0] in dt_mod_aliases
                    or head in ("datetime", "date", "datetime.datetime")
                ):
                    origin, name = "datetime", func.attr
        elif isinstance(func, ast.Name) and func.id in from_bindings:
            origin, name = from_bindings[func.id]

        if origin is None or name is None:
            return None
        if origin == "random":
            if name in ("Random",) and node.args:
                return None  # explicitly seeded generator object
            return (
                f"random.{name}() draws from implicit global state; use an "
                "explicitly seeded random.Random(seed)"
            )
        if origin == "numpy.random":
            if name == "default_rng":
                if node.args or node.keywords:
                    return None
                return (
                    "default_rng() without a seed is nondeterministic; pass "
                    "an explicit seed"
                )
            if name == "Generator":
                return None  # wrapping an explicit BitGenerator
            return (
                f"numpy.random.{name}() uses the legacy global state; use a "
                "seeded default_rng(seed)"
            )
        if origin == "time":
            if name == "gmtime" and (node.args or node.keywords):
                return None  # formatting a supplied timestamp
            if name in _TIME_FNS or name == "gmtime":
                return (
                    f"time.{name}() reads the wall clock; timestamps must "
                    "come from the logical clock or caller input"
                )
            return None
        if origin == "datetime" and name in _DATETIME_FNS:
            return (
                f"datetime {name}() reads the wall clock; pass timestamps "
                "explicitly"
            )
        return None


# ---------------------------------------------------------------------------
# D3 -- float arithmetic in field code


@register
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

    def check(self, ctx: FileContext) -> Iterator[Finding]:
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
            elif isinstance(node, ast.Call) and _call_name(node.func) == "float":
                yield ctx.finding(
                    self, node,
                    "float() conversion in exact-arithmetic zone",
                )


# ---------------------------------------------------------------------------
# D4 -- unguarded observability emission


_EMITTING_ATTRS = frozenset(
    {"event", "counter", "gauge", "histogram", "publish"}
)

#: emission methods of the bound-accounting ledger (repro.obs.ledger);
#: only flagged on names bound from ``obs.ledger()``, so ordinary
#: ``.count(...)`` calls on lists/strings never match
_LEDGER_EMITTING_ATTRS = frozenset(
    {"count", "note_addressing", "record_batch"}
)


@register
class UnguardedObservabilityRule(Rule):
    """D4: instrumentation emission (metrics increments, trace events)
    must sit behind the single :func:`repro.obs.enabled` switchboard
    guard, so the healthy hot path pays one boolean check and nothing
    else -- the <5% overhead budget of ``tests/obs/test_overhead.py``
    depends on it.  ``obs.span(...)`` guards itself and is exempt.

    Ledger emissions (``led.count`` / ``note_addressing`` /
    ``record_batch`` on a name bound from
    ``obs.ledger()``) follow the same contract; the idiomatic
    ``led = obs.ledger() if obs.enabled() else None`` + ``if led is not
    None:`` pattern counts as guarded, since a non-None ledger implies
    ``enabled()`` was True."""

    id = "D4"
    name = "unguarded-obs"
    zones = DETERMINISTIC_ZONES
    rationale = (
        "hot-path instrumentation must collapse to one enabled() check "
        "when observability is off"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag obs emissions with no reachable ``enabled()`` guard."""
        obs_aliases = _module_aliases(ctx.tree, "repro.obs")
        if not obs_aliases:
            return
        guard_names = self._guard_names(ctx.tree, obs_aliases)
        tracer_names = self._assigned_from(ctx.tree, obs_aliases, "tracer")
        metrics_names = self._assigned_from(ctx.tree, obs_aliases, "metrics")
        bus_names = self._assigned_from(ctx.tree, obs_aliases, "bus")
        ledger_names = self._assigned_from(ctx.tree, obs_aliases, "ledger")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = self._emission_target(
                node, obs_aliases, tracer_names, metrics_names, bus_names,
                ledger_names,
            )
            if target is None:
                continue
            # a name holding obs.ledger() is None unless enabled() held,
            # so 'if led is not None:' is as strong as the guard itself
            if self._guarded(ctx, node, guard_names | ledger_names):
                continue
            yield ctx.finding(
                self, node,
                f"{target} emission not guarded by obs.enabled(); wrap in "
                "'if obs.enabled():' (or early-return on tracer.enabled)",
            )

    @staticmethod
    def _assigned_from(
        tree: ast.Module, obs_aliases: set[str], attr: str
    ) -> set[str]:
        """Names bound from ``<obs>.tracer()`` / ``.metrics()`` /
        ``.bus()`` / ``.ledger()``, directly, through a conditional
        expression (``led = obs.ledger() if obs.enabled() else None``),
        through a walrus binding (``if (m := obs.metrics()):``), or onto
        an attribute chain (``self._led = obs.ledger()`` -> tracks
        ``self._led``).
        """
        out: set[str] = set()
        for node in ast.walk(tree):
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.NamedExpr):
                targets = [node.target]
                value = node.value
            else:
                continue
            values = [value]
            if isinstance(value, ast.IfExp):
                values = [value.body, value.orelse]
            for v in values:
                if (
                    isinstance(v, ast.Call)
                    and _is_attr_of(v.func, obs_aliases)
                    and v.func.attr == attr
                ):
                    for tgt in targets:
                        name = _call_name(tgt)
                        if name is not None:
                            out.add(name)
        return out

    @staticmethod
    def _guard_names(tree: ast.Module, obs_aliases: set[str]) -> set[str]:
        """Names bound from ``<obs>.enabled()``-style guard reads --
        plain names, walrus bindings, and attribute chains
        (``self._on = obs.enabled()`` tracks ``self._on``)."""
        out: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.NamedExpr):
                targets, value = [node.target], node.value
            else:
                continue
            if (
                isinstance(value, ast.Call)
                and _is_attr_of(value.func, obs_aliases)
                and "enabled" in value.func.attr
            ):
                for tgt in targets:
                    name = _call_name(tgt)
                    if name is not None:
                        out.add(name)
        return out

    def _emission_target(
        self,
        node: ast.Call,
        obs_aliases: set[str],
        tracer_names: set[str],
        metrics_names: set[str],
        bus_names: set[str],
        ledger_names: set[str],
    ) -> str | None:
        func = node.func
        if _is_attr_of(func, obs_aliases):
            if func.attr == "on_mpc_step":
                return "obs.on_mpc_step"
            if func.attr == "metrics":
                return "obs.metrics()"
            if func.attr == "publish":
                return "obs.publish"
            return None
        if isinstance(func, ast.Attribute) and func.attr in _EMITTING_ATTRS:
            base = func.value
            if isinstance(base, ast.NamedExpr):
                base = base.value  # (tr := obs.tracer()).event(...)
            # _obs.tracer().event(...) inline chain
            if (
                isinstance(base, ast.Call)
                and _is_attr_of(base.func, obs_aliases)
                and base.func.attr in ("tracer", "metrics", "bus")
            ):
                return f"obs.{base.func.attr}().{func.attr}"
            # tr.event(...) on a name (or self.attr chain) bound from
            # obs.tracer()/metrics()/bus()
            base_name = _call_name(base)
            if base_name is not None and base_name in (
                tracer_names | metrics_names | bus_names
            ):
                return f"{base_name}.{func.attr}"
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _LEDGER_EMITTING_ATTRS
        ):
            base = func.value
            if isinstance(base, ast.NamedExpr):
                base = base.value  # (led := obs.ledger()).count(...)
            # _obs.ledger().count(...) inline chain
            if (
                isinstance(base, ast.Call)
                and _is_attr_of(base.func, obs_aliases)
                and base.func.attr == "ledger"
            ):
                return f"obs.ledger().{func.attr}"
            # led.count(...) on a name (or self.attr chain) bound from
            # obs.ledger()
            base_name = _call_name(base)
            if base_name is not None and base_name in ledger_names:
                return f"{base_name}.{func.attr}"
        return None

    def _guarded(
        self, ctx: FileContext, node: ast.AST, guard_names: set[str]
    ) -> bool:
        # (a) enclosed in an if/while/ternary whose test mentions a guard
        for anc in ctx.ancestors(node):
            if isinstance(anc, (ast.If, ast.IfExp, ast.While)):
                if self._test_mentions_guard(anc.test, guard_names):
                    return True
        # (b) an earlier early-return guard in the same function:
        #     if not tr.enabled: return
        fn = ctx.enclosing_function(node)
        if fn is not None:
            line = getattr(node, "lineno", 0)
            for stmt in ast.walk(fn):
                if (
                    isinstance(stmt, ast.If)
                    and getattr(stmt, "lineno", 10**9) < line
                    and self._test_mentions_guard(stmt.test, guard_names)
                    and stmt.body
                    and isinstance(stmt.body[-1], (ast.Return, ast.Raise))
                ):
                    return True
        return False

    @staticmethod
    def _test_mentions_guard(test: ast.expr, guard_names: set[str]) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute):
                if "enabled" in sub.attr:
                    return True
                if _call_name(sub) in guard_names:
                    return True
            if isinstance(sub, ast.Name) and (
                "enabled" in sub.id or sub.id in guard_names
            ):
                return True
        return False


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
        fn = _call_name(node.func)
        return fn is not None and fn.split(".")[-1] in _MUTABLE_CONSTRUCTORS
    return False


def _is_empty_container(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Set)) and not node.elts:
        return True
    if isinstance(node, ast.Dict) and not node.keys:
        return True
    if isinstance(node, ast.Call) and not node.args and not node.keywords:
        fn = _call_name(node.func)
        return fn is not None and fn.split(".")[-1] in _MUTABLE_CONSTRUCTORS
    return False


@register
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

    def check(self, ctx: FileContext) -> Iterator[Finding]:
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
# D6 -- exception hygiene


_BROAD = ("Exception", "BaseException")


@register
class ExceptionHygieneRule(Rule):
    """D6: a broad except on a protocol path can absorb
    :class:`~repro.faults.report.QuorumLostError` and convert a lost
    quorum into a silently-wrong answer -- the exact failure mode the
    q/2 threshold campaigns exist to rule out.  Swallowing
    ``QuorumLostError`` (handler body of ``pass``) is flagged
    everywhere."""

    id = "D6"
    name = "exception-hygiene"
    zones = ()  # swallow check is global; broad check scopes itself
    rationale = (
        "lost quorums must surface as errors, never be absorbed into a "
        "default value"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag bare/broad handlers and swallowed quorum losses."""
        in_protocol = any(
            ctx.relpath == z or ctx.relpath.startswith(z + "/")
            for z in PROTOCOL_ZONES
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._mentions_quorum(node.type) and self._swallows(node):
                yield ctx.finding(
                    self, node,
                    "QuorumLostError swallowed; degraded results must "
                    "propagate or be reported",
                )
                continue
            if not in_protocol:
                continue
            if node.type is None:
                yield ctx.finding(
                    self, node,
                    "bare except on a protocol path; catch specific "
                    "exceptions",
                )
            elif self._is_broad(node.type) and not self._reraises(node):
                yield ctx.finding(
                    self, node,
                    "broad except without re-raise on a protocol path; "
                    "catch specific exceptions or re-raise",
                )

    @staticmethod
    def _is_broad(type_node: ast.expr) -> bool:
        names = (
            [e for e in type_node.elts]
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        for n in names:
            nm = _call_name(n)
            if nm is not None and nm.split(".")[-1] in _BROAD:
                return True
        return False

    @staticmethod
    def _mentions_quorum(type_node: ast.expr | None) -> bool:
        if type_node is None:
            return False
        names = (
            [e for e in type_node.elts]
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        return any(
            (_call_name(n) or "").split(".")[-1] == "QuorumLostError"
            for n in names
        )

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        return all(
            isinstance(s, (ast.Pass, ast.Continue))
            or (isinstance(s, ast.Expr)
                and isinstance(s.value, ast.Constant))
            for s in handler.body
        )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(s, ast.Raise) for s in ast.walk(handler))
