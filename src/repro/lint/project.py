"""The whole-program model every lint rule reads: files, symbols, calls.

A :class:`Project` is built once per ``repro lint`` run and is the only
place a file is parsed: files that do not parse become ``E0`` findings
in :attr:`Project.errors`, every other file becomes a
:class:`FileContext` (source lines, parent links, ``noqa``
suppressions).  On top of the files it collects a qualified-name symbol
table of every function, method and class, the import index
(:meth:`Project.qualify` resolves a dotted name through it), the call
graph, and the module-dependency graph.

Qualified names are ``<relpath>::<Class>.<method>`` (or
``<relpath>::<function>``), e.g.
``repro/service/service.py::KVService.stop`` -- path-scoped so fixture
trees in test temp dirs resolve exactly like the real package.  Files
are keyed by that ``repro/...`` path, so of two scanned files with the
same relative path the later one wins.

Call resolution is best-effort static analysis, deliberately biased
toward *precision* (an unresolved call produces no edge, never a wrong
edge):

* plain names bind through ``from``-imports, module-level defs in the
  same file, and local classes (a class call edges to ``__init__``);
* ``alias.attr(...)`` binds through ``import``-aliases to the target
  module's functions and classes;
* ``self.m(...)`` binds to the enclosing class (then base classes);
* ``self.x.m(...)`` and ``local.m(...)`` bind through inferred types:
  ``self.x = ClassName(...)`` assignments, dataclass-field and
  parameter annotations, and ``local = ClassName(...)`` bindings;
* as a last resort a bare method name that is defined exactly once in
  the whole project binds to that definition (ambiguous names produce
  no edge).

Each call site also records the exception names of every enclosing
``try`` that covers it, which is what lets the F3 typestate rule mask
handled ``QuorumLostError`` paths without a real CFG.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.lint.config import module_relpath

if TYPE_CHECKING:  # the rules import this module
    from repro.lint.rules import Rule

__all__ = [
    "Finding",
    "FileContext",
    "CallSite",
    "RaiseSite",
    "FunctionInfo",
    "ClassInfo",
    "Project",
    "dotted_name",
    "handler_names",
    "iter_python_files",
]

#: schema version of the exported call-graph JSON (the CI artifact)
GRAPH_SCHEMA = 1

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # module-relative (repro/...) path
    line: int
    col: int
    message: str
    snippet: str  # stripped source line, the baseline matching key
    severity: str = "error"

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        """Line-number-free identity used for baseline matching, so a
        grandfathered finding survives unrelated edits above it."""
        return (self.rule, self.path, self.snippet)

    def to_dict(self) -> dict:
        """JSON-serializable form (the ``--format json`` item shape)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "severity": self.severity,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Finding":
        """Inverse of :meth:`to_dict`."""
        return cls(**{k: d[k] for k in (
            "rule", "path", "line", "col", "message", "snippet", "severity"
        )})

    def describe(self) -> str:
        """Compiler-style ``path:line:col: RULE [severity] message``."""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"[{self.severity}] {self.message}"
        )


class FileContext:
    """Everything the rules share about one parsed file."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.relpath = module_relpath(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self.noqa: dict[int, frozenset[str] | None] = self._scan_noqa(source)

    @staticmethod
    def _scan_noqa(source: str) -> dict[int, frozenset[str] | None]:
        """Map line -> suppressed rule ids (None = all rules)."""
        out: dict[int, frozenset[str] | None] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                m = _NOQA_RE.search(tok.string)
                if not m:
                    continue
                codes = m.group("codes")
                if codes is None:
                    out[tok.start[0]] = None
                else:
                    ids = frozenset(
                        c.strip().upper() for c in codes.split(",") if c.strip()
                    )
                    prev = out.get(tok.start[0], frozenset())
                    out[tok.start[0]] = (
                        None if prev is None else prev | ids
                    )
        except tokenize.TokenizeError:  # pragma: no cover - parse ok'd already
            pass
        return out

    def suppressed(self, rule_id: str, line: int) -> bool:
        """True iff a ``noqa`` comment on ``line`` silences ``rule_id``."""
        if line not in self.noqa:
            return False
        codes = self.noqa[line]
        return codes is None or rule_id in codes

    def snippet_at(self, line: int) -> str:
        """Stripped source text of ``line`` (the baseline fingerprint key)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def parent(self, node: ast.AST) -> ast.AST | None:
        """Direct AST parent of ``node`` (None for the module root)."""
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """Innermost function def containing ``node``, if any."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def finding(self, rule: Rule, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` for ``rule`` at ``node``'s location."""
        return self.finding_at(
            rule, getattr(node, "lineno", 1), message,
            col=getattr(node, "col_offset", 0),
        )

    def finding_at(
        self, rule: Rule, line: int, message: str, col: int = 0
    ) -> Finding:
        """Build a :class:`Finding` for ``rule`` at ``line`` of this file."""
        return Finding(
            rule=rule.id,
            path=self.relpath,
            line=line,
            col=col,
            message=message,
            snippet=self.snippet_at(line),
            severity=rule.severity,
        )


def iter_python_files(paths: Iterable[str]) -> list[str]:
    """Expand files/directories into a sorted list of .py files."""
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.append(os.path.join(dirpath, name))
        elif p.endswith(".py"):
            out.append(p)
        else:
            raise ValueError(f"not a Python file or directory: {p}")
    return sorted(dict.fromkeys(out))


@dataclass
class CallSite:
    """One resolved-or-not call expression inside a function body."""

    node: ast.Call
    line: int
    #: qualified name of the callee when resolution succeeded
    callee: str | None
    #: textual form of the call target (``self.core.run_round``)
    text: str
    #: exception names handled by every enclosing ``try`` body
    handled: frozenset[str] = frozenset()


@dataclass
class RaiseSite:
    """One ``raise`` statement with its local handler coverage."""

    line: int
    #: bare class name of the raised exception ("" for re-raise)
    exc: str
    handled: frozenset[str] = frozenset()


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qname: str
    relpath: str
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool
    docstring: str = ""
    calls: list[CallSite] = field(default_factory=list)
    raises: list[RaiseSite] = field(default_factory=list)

    @property
    def line(self) -> int:
        """Definition line of the function."""
        return self.node.lineno

    @property
    def is_public(self) -> bool:
        """Part of the package surface: no leading underscore anywhere
        (dunder methods other than ``__init__`` count as internal)."""
        if self.name == "__init__":
            return True
        return not self.name.startswith("_")


@dataclass
class ClassInfo:
    """One class definition: methods, bases, inferred attribute types."""

    qname: str
    relpath: str
    name: str
    node: ast.ClassDef
    #: method name -> function qname
    methods: dict[str, str] = field(default_factory=dict)
    #: bare base-class names as written (resolution is name-based)
    bases: list[str] = field(default_factory=list)
    #: attribute name -> class qname (from ``self.x = Cls(...)`` and
    #: annotations)
    attr_types: dict[str, str] = field(default_factory=dict)


def _dotted_module(relpath: str) -> str:
    """``repro/service/shards.py`` -> ``repro.service.shards``."""
    mod = relpath.removesuffix(".py").replace("/", ".")
    return mod.removesuffix(".__init__")


def dotted_name(node: ast.expr) -> str | None:
    """Dotted textual form of a name/attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _annotation_class(ann: ast.expr | None) -> str | None:
    """Bare class name out of an annotation (``ServiceCore``,
    ``"ServiceCore"``, ``Optional[ServiceCore]`` -> ``ServiceCore``)."""
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        head = ann.value.split("[", 1)[0].strip()
        head = head.split("|", 1)[0].strip()
        return head.split(".")[-1] or None
    if isinstance(ann, ast.Name):
        return ann.id
    if isinstance(ann, ast.Attribute):
        return ann.attr
    if isinstance(ann, ast.Subscript):
        head = _annotation_class(ann.value)
        if head in ("Optional",):
            return _annotation_class(
                ann.slice if not isinstance(ann.slice, ast.Tuple) else None
            )
        return None
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        # ``ServiceCore | None`` -- take the non-None side
        left = _annotation_class(ann.left)
        if left not in (None, "None"):
            return left
        return _annotation_class(ann.right)
    return None


class Project:
    """Symbol table + call graph + module-dependency graph."""

    def __init__(self) -> None:
        self.files: dict[str, FileContext] = {}
        #: E0 findings for the files that do not parse
        self.errors: list[Finding] = []
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: dotted module -> relpath of its defining file
        self.module_files: dict[str, str] = {}
        #: relpath -> {alias -> dotted module} from ``import`` statements
        self.mod_aliases: dict[str, dict[str, str]] = {}
        #: relpath -> {name -> (dotted module, original name)}
        self.from_imports: dict[str, dict[str, tuple[str, str]]] = {}
        #: relpath -> set of relpaths it imports (module-dependency graph)
        self.module_deps: dict[str, set[str]] = {}
        #: bare method/function name -> qnames defining it
        self._by_name: dict[str, list[str]] = {}
        #: bare class name -> class qnames
        self._class_by_name: dict[str, list[str]] = {}
        #: reverse call graph: callee qname -> caller qnames
        self.callers: dict[str, set[str]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, paths: Iterable[str]) -> "Project":
        """Read every ``.py`` file under ``paths`` and model them."""
        sources = []
        for path in iter_python_files(paths):
            with open(path, encoding="utf-8") as fh:
                sources.append((path, fh.read()))
        return cls.from_sources(sources)

    @classmethod
    def from_sources(cls, sources: Iterable[tuple[str, str]]) -> "Project":
        """Parse ``(path, source)`` pairs and build the full model.

        A file that does not parse is left out of the model and becomes
        an ``E0`` finding in :attr:`errors`.
        """
        proj = cls()
        for path, source in sources:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                proj.errors.append(Finding(
                    rule="E0",
                    path=module_relpath(path),
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                    snippet="",
                ))
                continue
            ctx = FileContext(path, source, tree)
            proj.files[ctx.relpath] = ctx
        proj._index_symbols()
        proj._index_imports()
        proj._infer_attr_types()
        proj._resolve_calls()
        return proj

    def _index_symbols(self) -> None:
        for relpath, ctx in self.files.items():
            self.module_files.setdefault(_dotted_module(relpath), relpath)
            for node in ctx.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._add_function(relpath, node, cls_name=None)
                elif isinstance(node, ast.ClassDef):
                    self._add_class(relpath, node)

    def _add_class(self, relpath: str, node: ast.ClassDef) -> None:
        qname = f"{relpath}::{node.name}"
        info = ClassInfo(
            qname=qname,
            relpath=relpath,
            name=node.name,
            node=node,
            bases=[b for b in map(dotted_name, node.bases) if b],
        )
        self.classes[qname] = info
        self._class_by_name.setdefault(node.name, []).append(qname)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fi = self._add_function(relpath, item, cls_name=node.name)
                info.methods[item.name] = fi.qname
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                ann = _annotation_class(item.annotation)
                if ann:
                    info.attr_types.setdefault(item.target.id, ann)

    def _add_function(
        self,
        relpath: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls_name: str | None,
    ) -> FunctionInfo:
        qual = f"{cls_name}.{node.name}" if cls_name else node.name
        info = FunctionInfo(
            qname=f"{relpath}::{qual}",
            relpath=relpath,
            name=node.name,
            cls=cls_name,
            node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            docstring=ast.get_docstring(node) or "",
        )
        self.functions[info.qname] = info
        self._by_name.setdefault(node.name, []).append(info.qname)
        return info

    def _index_imports(self) -> None:
        for relpath, ctx in self.files.items():
            aliases: dict[str, str] = {}
            froms: dict[str, tuple[str, str]] = {}
            deps: set[str] = set()
            pkg_parts = relpath.split("/")[:-1]  # containing package
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Import):
                    for a in node.names:
                        aliases[a.asname or a.name] = a.name
                        self._dep(deps, a.name)
                elif isinstance(node, ast.ImportFrom):
                    mod = self._resolve_from(node, pkg_parts)
                    if mod is None:
                        continue
                    self._dep(deps, mod)
                    for a in node.names:
                        froms[a.asname or a.name] = (mod, a.name)
                        # ``from repro.service import shards`` imports a
                        # *module*: register it as an alias too
                        sub = f"{mod}.{a.name}"
                        if sub in self.module_files:
                            aliases[a.asname or a.name] = sub
                            self._dep(deps, sub)
            self.mod_aliases[relpath] = aliases
            self.from_imports[relpath] = froms
            self.module_deps[relpath] = deps

    @staticmethod
    def _resolve_from(
        node: ast.ImportFrom, pkg_parts: list[str]
    ) -> str | None:
        if node.level == 0:
            return node.module
        # relative import: walk up ``level-1`` packages from the file's
        # own package
        up = node.level - 1
        if up > len(pkg_parts):
            return None
        base = pkg_parts[: len(pkg_parts) - up]
        parts = base + (node.module.split(".") if node.module else [])
        return ".".join(parts) if parts else None

    def _dep(self, deps: set[str], module: str) -> None:
        relpath = self.module_files.get(module)
        if relpath is None:
            # a package import maps to its __init__
            relpath = self.module_files.get(f"{module}.__init__")
        if relpath is not None:
            deps.add(relpath)

    def qualify(self, relpath: str, node: ast.expr) -> str | None:
        """Import-resolved dotted name of a name/attribute chain in
        ``relpath``: after ``from numpy import random as npr``,
        ``npr.rand`` is ``numpy.random.rand``; after ``from repro import
        obs``, ``obs.span`` is ``repro.obs.span``.  A chain no import
        binds comes back as written; None for dynamic expressions."""
        text = dotted_name(node)
        if text is None:
            return None
        parts = text.split(".")
        aliases = self.mod_aliases.get(relpath, {})
        for cut in range(len(parts), 0, -1):
            mod = aliases.get(".".join(parts[:cut]))
            if mod is not None:
                return ".".join([mod, *parts[cut:]])
        binding = self.from_imports.get(relpath, {}).get(parts[0])
        if binding is not None:
            return ".".join([*binding, *parts[1:]])
        return text

    def _infer_attr_types(self) -> None:
        """Fill ``ClassInfo.attr_types`` from ``self.x = Cls(...)`` and
        ``self.x: Cls`` assignments in method bodies."""
        for cls_info in self.classes.values():
            for mname in cls_info.methods.values():
                fn = self.functions[mname]
                for node in ast.walk(fn.node):
                    attr: str | None = None
                    type_name: str | None = None
                    if isinstance(node, ast.Assign) and isinstance(
                        node.value, ast.Call
                    ):
                        type_name = self._class_name_of_call(
                            node.value, fn.relpath
                        )
                        for tgt in node.targets:
                            if (
                                isinstance(tgt, ast.Attribute)
                                and isinstance(tgt.value, ast.Name)
                                and tgt.value.id == "self"
                            ):
                                attr = tgt.attr
                    elif isinstance(node, ast.AnnAssign) and isinstance(
                        node.target, ast.Attribute
                    ):
                        tgt = node.target
                        if (
                            isinstance(tgt.value, ast.Name)
                            and tgt.value.id == "self"
                        ):
                            attr = tgt.attr
                            type_name = _annotation_class(node.annotation)
                    if attr and type_name:
                        resolved = self._lookup_class(type_name, fn.relpath)
                        if resolved:
                            cls_info.attr_types.setdefault(attr, resolved)
            # annotation-only names collected in _add_class still need
            # resolution to qnames
            for attr, tname in list(cls_info.attr_types.items()):
                if "::" not in tname:
                    resolved = self._lookup_class(tname, cls_info.relpath)
                    if resolved:
                        cls_info.attr_types[attr] = resolved
                    else:
                        del cls_info.attr_types[attr]

    def _class_name_of_call(
        self, call: ast.Call, relpath: str
    ) -> str | None:
        """``Cls`` for constructor-looking calls, resolution deferred."""
        name = dotted_name(call.func)
        if name is None:
            return None
        leaf = name.split(".")[-1]
        return leaf if leaf[:1].isupper() else None

    def _lookup_class(self, name: str, relpath: str) -> str | None:
        """Resolve a bare class name seen in ``relpath`` to a qname."""
        local = f"{relpath}::{name}"
        if local in self.classes:
            return local
        binding = self.from_imports.get(relpath, {}).get(name)
        if binding is not None:
            mod, orig = binding
            target = self.module_files.get(mod)
            if target is not None and f"{target}::{orig}" in self.classes:
                return f"{target}::{orig}"
        cands = self._class_by_name.get(name, [])
        return cands[0] if len(cands) == 1 else None

    # -- call resolution ---------------------------------------------------

    def _resolve_calls(self) -> None:
        for fn in self.functions.values():
            local_types = self._local_types(fn)
            self._collect_sites(fn, fn.node.body, frozenset(), local_types)
        for fn in self.functions.values():
            for site in fn.calls:
                if site.callee is not None:
                    self.callers.setdefault(site.callee, set()).add(fn.qname)

    def _local_types(self, fn: FunctionInfo) -> dict[str, str]:
        """Parameter + local-variable class types inside ``fn``."""
        types: dict[str, str] = {}
        args = fn.node.args
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            ann = _annotation_class(a.annotation)
            if ann:
                resolved = self._lookup_class(ann, fn.relpath)
                if resolved:
                    types[a.arg] = resolved
        for node in ast.walk(fn.node):
            value: ast.expr | None = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                ann = _annotation_class(node.annotation)
                if ann:
                    resolved = self._lookup_class(ann, fn.relpath)
                    if resolved:
                        types[node.target.id] = resolved
                continue
            if not isinstance(value, ast.Call):
                continue
            cname = self._class_name_of_call(value, fn.relpath)
            if cname is None:
                continue
            resolved = self._lookup_class(cname, fn.relpath)
            if resolved is None:
                continue
            for tgt in targets:
                if isinstance(tgt, ast.Name):
                    types[tgt.id] = resolved
        return types

    def _collect_sites(
        self,
        fn: FunctionInfo,
        body: list[ast.stmt],
        handled: frozenset[str],
        local_types: dict[str, str],
    ) -> None:
        """Recursive statement walk carrying the active handler set.

        Nested function bodies (closures, inner coroutines) are
        attributed to the *enclosing* project function: they are not
        separate symbols, and a closure's calls execute as part of the
        function that defines and drives it.
        """
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                continue  # function-local classes: out of model
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_sites(fn, stmt.body, handled, local_types)
                continue
            if isinstance(stmt, ast.Try):
                names = frozenset(
                    n for h in stmt.handlers for n in handler_names(h)
                )
                self._collect_sites(
                    fn, stmt.body, handled | names, local_types
                )
                for h in stmt.handlers:
                    self._collect_sites(fn, h.body, handled, local_types)
                self._collect_sites(fn, stmt.orelse, handled, local_types)
                self._collect_sites(fn, stmt.finalbody, handled, local_types)
                continue
            if isinstance(stmt, ast.Raise):
                exc = ""
                e = stmt.exc
                if isinstance(e, ast.Call):
                    exc = (dotted_name(e.func) or "").split(".")[-1]
                elif e is not None:
                    exc = (dotted_name(e) or "").split(".")[-1]
                fn.raises.append(
                    RaiseSite(line=stmt.lineno, exc=exc, handled=handled)
                )
            # this statement's own expressions: child statements are
            # skipped here and visited by the recursion below, so no
            # call is counted twice
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    continue
                for node in ast.walk(child):
                    if isinstance(node, ast.Call):
                        fn.calls.append(CallSite(
                            node=node,
                            line=node.lineno,
                            callee=self._resolve_call(
                                fn, node, local_types
                            ),
                            text=dotted_name(node.func) or "<dynamic>",
                            handled=handled,
                        ))
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if isinstance(sub, list) and sub and isinstance(
                    sub[0], ast.stmt
                ):
                    self._collect_sites(fn, sub, handled, local_types)

    def _resolve_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        local_types: dict[str, str],
    ) -> str | None:
        name = dotted_name(call.func)
        if name is None:
            return None
        parts = name.split(".")
        relpath = fn.relpath

        if len(parts) == 1:
            return self._resolve_plain(relpath, parts[0])

        if parts[0] == "self" and fn.cls is not None:
            return self._resolve_self(fn, parts)

        # typed local / parameter receiver: ``core.run_round(...)``
        if parts[0] in local_types and len(parts) == 2:
            hit = self._method_of(local_types[parts[0]], parts[1])
            if hit:
                return hit

        # module alias prefix: ``shards.route(...)``, ``repro.obs.x(...)``
        hit = self._resolve_module_attr(relpath, parts)
        if hit:
            return hit

        # last resort: globally unique method name
        return self._unique_by_name(parts[-1])

    def _resolve_plain(self, relpath: str, name: str) -> str | None:
        local = f"{relpath}::{name}"
        if local in self.functions:
            return local
        if local in self.classes:
            return self.classes[local].methods.get("__init__")
        binding = self.from_imports.get(relpath, {}).get(name)
        if binding is not None:
            mod, orig = binding
            target = self.module_files.get(mod)
            if target is not None:
                tq = f"{target}::{orig}"
                if tq in self.functions:
                    return tq
                if tq in self.classes:
                    return self.classes[tq].methods.get("__init__")
        return None

    def _resolve_self(self, fn: FunctionInfo, parts: list[str]) -> str | None:
        cls = self.classes.get(f"{fn.relpath}::{fn.cls}")
        if cls is None:
            return None
        if len(parts) == 2:
            return self._method_of(cls.qname, parts[1])
        if len(parts) == 3:
            target = cls.attr_types.get(parts[1])
            if target is not None:
                return self._method_of(target, parts[2])
            return self._unique_by_name(parts[2])
        return None

    def _method_of(self, class_qname: str, method: str) -> str | None:
        """Method lookup through the (name-resolved) base-class chain."""
        seen: set[str] = set()
        stack = [class_qname]
        while stack:
            q = stack.pop()
            if q in seen:
                continue
            seen.add(q)
            info = self.classes.get(q)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            for base in info.bases:
                resolved = self._lookup_class(base, info.relpath)
                if resolved:
                    stack.append(resolved)
        return None

    def _resolve_module_attr(
        self, relpath: str, parts: list[str]
    ) -> str | None:
        aliases = self.mod_aliases.get(relpath, {})
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            mod = aliases.get(prefix)
            if mod is None:
                continue
            target = self.module_files.get(mod) or self.module_files.get(
                f"{mod}.__init__"
            )
            if target is None:
                return None
            rest = parts[cut:]
            if len(rest) == 1:
                tq = f"{target}::{rest[0]}"
                if tq in self.functions:
                    return tq
                if tq in self.classes:
                    return self.classes[tq].methods.get("__init__")
            elif len(rest) == 2:
                return self._method_of(f"{target}::{rest[0]}", rest[1])
            return None
        return None

    def _unique_by_name(self, name: str) -> str | None:
        if name.startswith("__"):
            return None  # dunder fallbacks are never meaningful
        cands = self._by_name.get(name, [])
        return cands[0] if len(cands) == 1 else None

    # -- queries -----------------------------------------------------------

    def call_edges(self, qname: str) -> set[str]:
        """Resolved callee qnames of one function."""
        fn = self.functions.get(qname)
        if fn is None:
            return set()
        return {s.callee for s in fn.calls if s.callee is not None}

    def reachable_from(self, roots: list[str]) -> set[str]:
        """Transitive closure of the call graph from ``roots``."""
        seen: set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            q = stack.pop()
            if q in seen:
                continue
            seen.add(q)
            stack.extend(self.call_edges(q) - seen)
        return seen

    def shortest_caller_chain(
        self, target: str, predicate: "Callable[[str], bool]"
    ) -> list[str] | None:
        """BFS over the *reverse* call graph from ``target`` to the
        nearest caller satisfying ``predicate``; returns the chain
        caller-first, or None."""
        prev: dict[str, str] = {}
        seen = {target}
        queue = deque([target])
        while queue:
            q = queue.popleft()
            if q != target and predicate(q):
                chain = [q]
                while chain[-1] != target:
                    chain.append(prev[chain[-1]])
                return chain
            # sorted so the witness chain (and thus the message) is
            # identical run to run
            for caller in sorted(self.callers.get(q, ())):
                if caller not in seen:
                    seen.add(caller)
                    prev[caller] = q
                    queue.append(caller)
        return None

    def exception_ancestors(self, name: str) -> set[str]:
        """Transitive base-class names of ``name`` per project defs."""
        out: set[str] = set()
        stack = [name]
        while stack:
            cur = stack.pop()
            for q in self._class_by_name.get(cur, []):
                for base in self.classes[q].bases:
                    leaf = base.split(".")[-1]
                    if leaf not in out:
                        out.add(leaf)
                        stack.append(leaf)
        return out

    def to_graph_dict(self) -> dict:
        """JSON form of the call + module graphs (the CI artifact)."""
        return {
            "schema": GRAPH_SCHEMA,
            "functions": [
                {
                    "qname": fn.qname,
                    "path": fn.relpath,
                    "line": fn.line,
                    "async": fn.is_async,
                    "calls": sorted(self.call_edges(fn.qname)),
                }
                for _, fn in sorted(self.functions.items())
            ],
            "modules": {
                relpath: sorted(deps)
                for relpath, deps in sorted(self.module_deps.items())
            },
        }

    def write_graph(self, path: str) -> None:
        """Write :meth:`to_graph_dict` to ``path`` as pretty JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_graph_dict(), fh, indent=2)
            fh.write("\n")


def handler_names(handler: ast.ExceptHandler) -> set[str]:
    """Bare exception names one ``except`` clause covers."""
    t = handler.type
    if t is None:
        return {"BaseException"}
    nodes = t.elts if isinstance(t, ast.Tuple) else [t]
    return {
        (dotted_name(n) or "").split(".")[-1]
        for n in nodes
        if dotted_name(n) is not None
    }
