"""Call graph + worker-reachable universe, re-derived from source.

This is translation validation: the analyzer does **not** ask the
runtime which functions are jobs — it re-derives the worker-entry
universe from scratch by scanning every module for

* ``JobSpec(...)`` construction sites (the ``fn=`` dotted reference,
  following a simple name to its module-level string constant), and
* any string literal of the ``"package.module:attr"`` shape that
  resolves to an indexed function (this is how ``team_source``
  factories and ad-hoc dotted refs enter workers).

From those roots it computes the transitive closure over a
conservatively over-approximated call graph:

* direct calls through local defs, imports and ``from``-import
  re-export chains (the ``__init__`` barrel pattern);
* ``self.method()`` within a class;
* constructor calls (edge to ``__init__``) plus flow-insensitive local
  type inference (``x = Cls(...); x.m()`` resolves to ``Cls.m``);
* a *bounded class-hierarchy fallback* for method calls on values of
  unknown type: the call resolves to every indexed class that defines
  a method of that name — unless the name collides with a builtin
  collection method, which would drag the whole package in.

Over-approximation is the safe direction for a certifier: an edge too
many can only make the analysis check more code.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from .index import FunctionInfo, PackageIndex

__all__ = ["CallGraph", "build_call_graph", "DOTTED_REF_RE"]

DOTTED_REF_RE = re.compile(r"^[A-Za-z_][\w.]*:[A-Za-z_][\w.]*$")

# Method names never resolved through the class-hierarchy fallback:
# they are overwhelmingly builtin-collection calls, and resolving them
# to user classes would connect everything to everything.
_CHA_SKIP = frozenset({
    "append", "extend", "add", "update", "pop", "clear", "remove", "discard",
    "insert", "get", "setdefault", "keys", "values", "items", "copy", "sort",
    "reverse", "count", "index", "join", "split", "rsplit", "strip", "rstrip",
    "lstrip", "startswith", "endswith", "format", "replace", "encode",
    "decode", "lower", "upper", "partition", "rpartition", "splitlines",
    "read", "write", "close", "open", "flush", "readline", "readlines",
    "astype", "reshape", "ravel", "sum", "mean", "max", "min", "tolist",
    "item", "fill", "dot", "transpose", "squeeze", "clip", "round", "all",
    "any", "argmax", "argmin", "cumsum", "flatten", "nonzero", "repeat",
    "std", "var", "take", "view", "tobytes", "putmask", "searchsorted",
})


@dataclass
class CallGraph:
    """Edges, dotted-ref roots and the reachable closure over them."""

    index: PackageIndex
    edges: dict[str, set[str]] = field(default_factory=dict)
    # qualname -> (ref string, path, line) for every dotted-ref root
    roots: dict[str, tuple[str, str, int]] = field(default_factory=dict)
    # dotted refs that point into the package but do NOT resolve —
    # fuel for REPRO608 (a worker would crash or worse at dispatch)
    unresolved_refs: list[tuple[str, str, int, str]] = field(default_factory=list)
    # JobSpec(...) construction sites: (path, line, call node, module)
    jobspec_sites: list[tuple[str, int, ast.Call, str]] = field(default_factory=list)
    reachable: dict[str, str | None] = field(default_factory=dict)  # fn -> caller

    def callees(self, qualname: str) -> set[str]:
        return self.edges.get(qualname, set())

    def chain(self, qualname: str, limit: int = 6) -> list[str]:
        """Call path from a worker root to ``qualname`` (root first)."""
        path = [qualname]
        seen = {qualname}
        while path[0] in self.reachable:
            parent = self.reachable[path[0]]
            if parent is None or parent in seen:
                break
            path.insert(0, parent)
            seen.add(parent)
        if len(path) > limit:
            path = path[:2] + ["..."] + path[-(limit - 3):]
        return path

    def worker_modules(self) -> set[str]:
        """Modules a worker imports: every module owning reachable code."""
        return {
            self.index.functions[q].module
            for q in self.reachable
            if q in self.index.functions
        }


def _dotted_parts(node: ast.AST) -> list[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


class _FunctionScanner:
    """Extract call edges from one function body."""

    def __init__(self, graph: CallGraph, fn: FunctionInfo) -> None:
        self.graph = graph
        self.index = graph.index
        self.fn = fn
        self.var_types: dict[str, str] = {}  # local var -> "module:Class"

    def _add_edge(self, target_qualname: str) -> None:
        self.graph.edges.setdefault(self.fn.qualname, set()).add(target_qualname)

    def _class_methods(self, class_key: str) -> dict[str, FunctionInfo]:
        module, _, cls = class_key.partition(":")
        info = self.index.modules.get(module)
        if info is None:
            return {}
        return info.classes.get(cls, {})

    def _edge_to_class(self, class_key: str) -> None:
        methods = self._class_methods(class_key)
        for name in ("__init__", "__post_init__"):
            if name in methods:
                self._add_edge(methods[name].qualname)

    def _resolve_call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self.index.resolve(self.fn.module, func.id)
            if resolved is None:
                return
            kind, target = resolved
            if kind == "func":
                self._add_edge(target)
            elif kind == "class":
                self._edge_to_class(target)
            return
        if not isinstance(func, ast.Attribute):
            return
        parts = _dotted_parts(func)
        if not parts:
            # ``Cls(...).m()`` — resolve through the constructor's class;
            # only an unknown receiver falls back to hierarchy resolution.
            if isinstance(func.value, ast.Call):
                cls_key = self._call_class(func.value)
                if cls_key is not None:
                    methods = self._class_methods(cls_key)
                    if func.attr in methods:
                        self._add_edge(methods[func.attr].qualname)
                        return
            self._cha(func.attr)
            return
        base, attr = parts[0], parts[-1]
        if base == "self" and self.fn.cls is not None:
            own = self._class_methods(f"{self.fn.module}:{self.fn.cls}")
            if attr in own:
                self._add_edge(own[attr].qualname)
            else:
                self._cha(attr)
            return
        if base in self.var_types:
            methods = self._class_methods(self.var_types[base])
            if attr in methods:
                self._add_edge(methods[attr].qualname)
                return
        # Module-attribute chains: ``pkg.mod.fn(...)`` / ``alias.fn(...)``.
        for split in range(len(parts) - 1, 0, -1):
            prefix = parts[:split]
            resolved = self.index.resolve(self.fn.module, prefix[0])
            if resolved is None or resolved[0] == "func":
                continue
            if resolved[0] == "class" and split == len(parts) - 1:
                methods = self._class_methods(resolved[1])
                if attr in methods:
                    self._add_edge(methods[attr].qualname)
                    return
            if resolved[0] == "module":
                dotted = ".".join([resolved[1]] + prefix[1:])
                target = (
                    self.index.resolve(dotted, parts[split])
                    if split == len(parts) - 1 else None
                )
                if target and target[0] == "func":
                    self._add_edge(target[1])
                    return
                if target and target[0] == "class":
                    self._edge_to_class(target[1])
                    return
        self._cha(attr)

    def _cha(self, method_name: str) -> None:
        """Bounded class-hierarchy fallback for unknown receivers."""
        if method_name in _CHA_SKIP or method_name.startswith("__"):
            return
        for qualname in self.graph.index.methods_by_name.get(method_name, ()):
            self._add_edge(qualname)

    def scan(self) -> None:
        # First pass: flow-insensitive local constructor types.
        for node in ast.walk(self.fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                target_cls = self._call_class(node.value)
                if target_cls is not None:
                    self.var_types[node.targets[0].id] = target_cls
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Call):
                self._resolve_call(node)

    def _call_class(self, call: ast.Call) -> str | None:
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is None:
            return None
        resolved = self.index.resolve(self.fn.module, name)
        if resolved is not None and resolved[0] == "class":
            return resolved[1]
        return None


def _literal_ref(call: ast.Call, module, index: PackageIndex) -> tuple[str | None, ast.AST]:
    """The ``fn=`` dotted reference of a JobSpec call, if recoverable."""
    node: ast.AST | None = None
    if len(call.args) >= 2:
        node = call.args[1]
    for kw in call.keywords:
        if kw.arg == "fn":
            node = kw.value
    if node is None:
        return None, call
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, node
    if isinstance(node, ast.Name):
        # Follow a module-level string constant (DEFAULT_TEAM_SOURCE).
        value = module.assigns.get(node.id)
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return value.value, node
    return None, node


def build_call_graph(index: PackageIndex) -> CallGraph:
    """Scan every indexed function, discover roots, close reachability."""
    graph = CallGraph(index=index)
    for fn in index.functions.values():
        _FunctionScanner(graph, fn).scan()

    package_prefix = index.package + "."
    for module in index.modules.values():
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else ""
                )
                if callee == "JobSpec":
                    graph.jobspec_sites.append(
                        (module.path, node.lineno, node, module.name)
                    )
                    ref, ref_node = _literal_ref(node, module, index)
                    if ref is not None:
                        _register_ref(graph, ref, module.path, ref_node)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if DOTTED_REF_RE.match(node.value):
                    _register_ref(graph, node.value, module.path, node)

    # Transitive closure, tracking one witness caller per function so
    # findings can print a root -> ... -> hazard chain.
    frontier = list(graph.roots)
    for qualname in frontier:
        graph.reachable.setdefault(qualname, None)
    while frontier:
        current = frontier.pop()
        for callee in sorted(graph.edges.get(current, ())):
            if callee not in graph.reachable:
                graph.reachable[callee] = current
                frontier.append(callee)
    return graph


def _register_ref(graph: CallGraph, ref: str, path: str, node: ast.AST) -> None:
    index = graph.index
    module_path = ref.partition(":")[0]
    in_package = module_path == index.package or module_path.startswith(
        index.package + "."
    )
    if not in_package:
        return  # external refs are not certifiable (or not ours)
    target = index.resolve_dotted_ref(ref)
    line = getattr(node, "lineno", 0)
    if target is None:
        graph.unresolved_refs.append(
            (ref, path, line, "does not resolve to a module-level callable")
        )
        return
    graph.roots.setdefault(target.qualname, (ref, path, line))
