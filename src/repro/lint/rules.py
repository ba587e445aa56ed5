"""Project-specific AST lint rules for the autograd substrate.

The hand-written backward closures in :mod:`repro.nn` are the class of
code where a silently wrong gradient destroys results without ever
crashing.  These rules encode the conventions that keep the tape
correct:

* ``REPRO001`` — in the backward closure of a broadcastable binary op
  (any op that coerces an operand with ``as_tensor``), every arithmetic
  gradient expression must pass through ``_unbroadcast`` before it is
  handed to ``_accumulate``.  Skipping it produces shape-dependent
  silent corruption the moment an operand is broadcast.
* ``REPRO002`` — ``Module.forward`` must stay on the tape: calling a
  ``np.*`` function directly on a forward input, or ``.numpy()`` on it,
  silently detaches the graph and zeroes every upstream gradient.
* ``REPRO003`` — wiring graph nodes by hand (assigning ``._backward`` /
  ``._parents``) without consulting ``is_grad_enabled()`` builds tape
  inside ``no_grad`` blocks, leaking memory and corrupting inference.
* ``REPRO004`` — mutable default arguments.
* ``REPRO005`` — in-place mutation of ``.data`` inside ``forward``
  methods or backward closures invalidates values captured by backward
  closures between the forward and backward passes.
* ``REPRO006`` — statically evident channel mismatches between
  consecutive layers constructed inside an ``nn.Sequential(...)`` call
  with literal channel counts.
* ``REPRO007`` — module-level imports that are never used.
* ``REPRO008`` — a backward closure reads a loop variable of its
  enclosing function (stale-closure: every recorded op sees the loop's
  final value) or mutates its own output gradient (``out.grad``) in
  place, corrupting accumulation for sibling consumers.

Diagnostics on a line containing ``# noqa: REPROxxx`` (or a bare
``# noqa``) are suppressed.

Rule codes and messages are allocated centrally in
:mod:`repro.diagnostics`; ``RULES`` here is the lint-component view.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.diagnostics import codes_for

__all__ = ["LintDiagnostic", "RULES", "lint_source", "lint_file", "lint_paths"]

# Layer constructors whose first two positional arguments are
# (in_channels/features, out_channels/features); used by REPRO006.
_CHANNEL_LAYERS = {"Conv2d", "Linear", "ConvBNReLU"}

RULES = codes_for("lint")


@dataclass(frozen=True)
class LintDiagnostic:
    """One finding: ``path:line:col: code message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class _Context:
    path: str
    suppressed: dict[int, set[str] | None]  # line -> codes (None = all)
    diagnostics: list[LintDiagnostic] = field(default_factory=list)

    def report(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if line in self.suppressed:
            codes = self.suppressed[line]
            if codes is None or code in codes:
                return
        self.diagnostics.append(
            LintDiagnostic(self.path, line, getattr(node, "col_offset", 0), code, message)
        )


def _noqa_lines(source: str) -> dict[int, set[str] | None]:
    """Map line numbers to suppressed rule codes (``None`` = every rule)."""
    suppressed: dict[int, set[str] | None] = {}
    for i, text in enumerate(source.splitlines(), start=1):
        if "# noqa" not in text:
            continue
        _, _, tail = text.partition("# noqa")
        tail = tail.strip()
        if tail.startswith(":"):
            codes = {c.strip() for c in tail[1:].replace(",", " ").split() if c.strip()}
            suppressed[i] = codes or None
        else:
            suppressed[i] = None
    return suppressed


# -- small AST helpers ---------------------------------------------------------


def _call_name(node: ast.Call) -> str:
    """Trailing name of the called expression (``nn.Conv2d`` -> ``Conv2d``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _contains_call_to(tree: ast.AST, name: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _call_name(node) == name:
            return True
    return False


def _references_grad_of(expr: ast.AST, grad_holders: set[str]) -> bool:
    """Whether ``expr`` mentions ``<holder>.grad`` for a known holder."""
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "grad"
            and isinstance(node.value, ast.Name)
            and node.value.id in grad_holders
        ):
            return True
    return False


def _is_np_call(node: ast.Call) -> bool:
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    )


def _iter_functions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _nested_backward_defs(func: ast.FunctionDef) -> list[ast.FunctionDef]:
    out = []
    for node in ast.walk(func):
        if isinstance(node, ast.FunctionDef) and node is not func and node.name == "backward":
            out.append(node)
    return out


# -- REPRO001: missing _unbroadcast --------------------------------------------


def _check_unbroadcast(tree: ast.AST, ctx: _Context) -> None:
    for func in _iter_functions(tree):
        if func.name == "backward":
            continue
        if not _contains_call_to(func, "as_tensor"):
            continue
        for backward in _nested_backward_defs(func):
            grad_holders = {a.arg for a in backward.args.args}
            for node in ast.walk(backward):
                if not (isinstance(node, ast.Call) and _call_name(node) == "_accumulate"):
                    continue
                if not node.args:
                    continue
                arg = node.args[0]
                # Arithmetic combinations of the output gradient must be
                # summed back to the operand shape; bare names, slices and
                # reduction calls are shape-preserving by construction.
                if not isinstance(arg, (ast.BinOp, ast.UnaryOp)):
                    continue
                if not _references_grad_of(arg, grad_holders):
                    continue
                ctx.report(
                    node,
                    "REPRO001",
                    "gradient expression is not wrapped in _unbroadcast(); "
                    "broadcast operands will receive wrongly-shaped "
                    "(or silently corrupted) gradients",
                )


# -- REPRO002: tape detach inside forward --------------------------------------


def _check_forward_detach(tree: ast.AST, ctx: _Context) -> None:
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for func in cls.body:
            if not (isinstance(func, ast.FunctionDef) and func.name == "forward"):
                continue
            params = {a.arg for a in func.args.args[1:]}  # skip self
            params |= {a.arg for a in func.args.kwonlyargs}
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and _is_np_call(node):
                    for arg in node.args:
                        if isinstance(arg, ast.Name) and arg.id in params:
                            ctx.report(
                                node,
                                "REPRO002",
                                f"np.{_call_name(node)}() applied directly to "
                                f"forward input {arg.id!r} detaches the "
                                "autograd tape; use Tensor ops (or .data "
                                "explicitly if detaching is intended)",
                            )
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "numpy"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in params
                ):
                    ctx.report(
                        node,
                        "REPRO002",
                        f"{node.func.value.id}.numpy() inside forward leaks a "
                        "raw ndarray off the tape",
                    )


# -- REPRO003: graph wiring without grad guard ---------------------------------


def _check_grad_guard(tree: ast.AST, ctx: _Context) -> None:
    for func in _iter_functions(tree):
        wires: list[ast.AST] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
                value = node.value
            else:
                continue
            if isinstance(value, ast.Constant) and value.value is None:
                continue  # clearing the tape is always safe
            if isinstance(value, ast.Tuple) and not value.elts:
                continue  # `_parents = ()` is also a tape clear
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr in (
                    "_backward",
                    "_parents",
                ):
                    wires.append(node)
        if not wires:
            continue
        guarded = any(
            (isinstance(n, ast.Call) and _call_name(n) == "is_grad_enabled")
            or (isinstance(n, ast.Name) and n.id == "_GRAD_ENABLED")
            for n in ast.walk(func)
        )
        if guarded:
            continue
        for node in wires:
            ctx.report(
                node,
                "REPRO003",
                "graph node wired (_backward/_parents assigned) without "
                "consulting is_grad_enabled(); this records tape inside "
                "no_grad() blocks",
            )


# -- REPRO004: mutable default arguments ---------------------------------------


def _check_mutable_defaults(tree: ast.AST, ctx: _Context) -> None:
    for func in _iter_functions(tree):
        for default in list(func.args.defaults) + list(func.args.kw_defaults):
            if default is None:
                continue
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and _call_name(default) in ("list", "dict", "set")
            ):
                ctx.report(
                    default,
                    "REPRO004",
                    f"mutable default argument in {func.name}() is shared "
                    "across calls",
                )


# -- REPRO005: in-place .data mutation in forward/backward ---------------------


def _check_inplace_data(tree: ast.AST, ctx: _Context) -> None:
    def is_data_attr(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "data"

    def scan(func: ast.FunctionDef) -> None:
        for node in ast.walk(func):
            if isinstance(node, ast.AugAssign):
                target = node.target
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            else:
                continue
            # x.data += ... / x.data[...] = ... / x.data[...] += ...
            if is_data_attr(target) and isinstance(node, ast.AugAssign):
                pass
            elif isinstance(target, ast.Subscript) and is_data_attr(target.value):
                pass
            else:
                continue
            ctx.report(
                node,
                "REPRO005",
                "in-place mutation of Tensor data between forward and "
                "backward invalidates values captured by backward closures",
            )

    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for func in cls.body:
                if isinstance(func, ast.FunctionDef) and func.name == "forward":
                    scan(func)
    for func in _iter_functions(tree):
        if func.name == "backward" and func.args.args:
            scan(func)


# -- REPRO006: literal Sequential channel mismatch -----------------------------


def _literal_channels(call: ast.Call) -> tuple[int, int] | None:
    if _call_name(call) not in _CHANNEL_LAYERS or len(call.args) < 2:
        return None
    a, b = call.args[0], call.args[1]
    if isinstance(a, ast.Constant) and isinstance(a.value, int) and (
        isinstance(b, ast.Constant) and isinstance(b.value, int)
    ):
        return a.value, b.value
    return None


def _check_sequential_channels(tree: ast.AST, ctx: _Context) -> None:
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _call_name(node) == "Sequential"):
            continue
        prev_out: int | None = None
        prev_name = ""
        for arg in node.args:
            if not isinstance(arg, ast.Call):
                prev_out = None
                continue
            channels = _literal_channels(arg)
            name = _call_name(arg)
            if channels is None:
                # Shape-preserving layers pass the count through; anything
                # unknown resets the chain.
                if name not in (
                    "ReLU", "GELU", "Sigmoid", "Identity", "Dropout",
                    "BatchNorm2d", "LayerNorm", "Softmax",
                ):
                    prev_out = None
                continue
            c_in, c_out = channels
            if prev_out is not None and c_in != prev_out:
                ctx.report(
                    arg,
                    "REPRO006",
                    f"{name} expects {c_in} input channels but previous "
                    f"{prev_name} produces {prev_out}",
                )
            prev_out, prev_name = c_out, name


# -- REPRO007: unused module-level imports -------------------------------------


def _check_unused_imports(tree: ast.Module, ctx: _Context, path: str) -> None:
    if Path(path).name == "__init__.py":
        return  # re-export modules intentionally import unused names
    imported: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                imported[alias.asname or alias.name] = node
    if not imported:
        return
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                used.add(base.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            exported.add(node.value)  # __all__ strings, doctest names
    for name, node in imported.items():
        if name not in used and name not in exported:
            ctx.report(node, "REPRO007", f"imported name {name!r} is never used")


# -- REPRO008: stale-closure capture / out.grad aliasing in backward -----------


def _binding_names(target: ast.AST) -> set[str]:
    """Names bound by an assignment/loop target (handles tuple unpacking)."""
    names: set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
    return names


def _locals_of(func: ast.FunctionDef) -> set[str]:
    """Every name the function itself binds (params, assigns, loops, withs)."""
    bound = {a.arg for a in func.args.args + func.args.kwonlyargs}
    bound |= {a.arg for a in (func.args.vararg, func.args.kwarg) if a is not None}
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound |= _binding_names(target)
        elif isinstance(node, ast.For):
            bound |= _binding_names(node.target)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            bound |= _binding_names(node.optional_vars)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            bound.add(node.name)
    return bound


def _check_backward_closure_hazards(tree: ast.AST, ctx: _Context) -> None:
    for func in _iter_functions(tree):
        if func.name == "backward":
            continue
        for backward in _nested_backward_defs(func):
            # (a) stale-closure capture: the backward body reads a name
            # that is a for-loop target of the *enclosing* function.  By
            # the time any backward runs the loop has finished, so every
            # closure sees the final iteration's value.
            inner = {id(n) for n in ast.walk(backward)}
            outer_loop_vars: set[str] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.For) and id(node) not in inner:
                    outer_loop_vars |= _binding_names(node.target)
            backward_locals = _locals_of(backward)
            captured = outer_loop_vars - backward_locals
            if captured:
                for node in ast.walk(backward):
                    if (
                        isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        and node.id in captured
                    ):
                        ctx.report(
                            node,
                            "REPRO008",
                            f"backward closure captures loop variable "
                            f"{node.id!r} of {func.name}(); all recorded "
                            "ops will see the loop's final value — bind it "
                            "via a default argument or a per-iteration "
                            "helper instead",
                        )
            # (b) in-place mutation of the closure's own output gradient:
            # sibling consumers accumulate into the same array, so writing
            # through out.grad corrupts their contributions.
            if not backward.args.args:
                continue
            holder = {backward.args.args[0].arg}
            for node in ast.walk(backward):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        base = target.value if isinstance(target, ast.Subscript) else target
                        if (
                            isinstance(base, ast.Attribute)
                            and base.attr == "grad"
                            and isinstance(base.value, ast.Name)
                            and base.value.id in holder
                        ):
                            ctx.report(
                                node,
                                "REPRO008",
                                "backward closure mutates out.grad in place; "
                                "the output gradient is shared with every "
                                "other consumer's accumulation — derive a "
                                "fresh array instead",
                            )
                elif isinstance(node, ast.Call):
                    mutating = isinstance(node.func, ast.Attribute) and node.func.attr in (
                        "at",  # np.<ufunc>.at(out.grad, ...)
                        "copyto",  # np.copyto(out.grad, ...)
                    )
                    hits = [
                        a for a in node.args[:1] if _references_grad_of(a, holder)
                    ] + [
                        k.value
                        for k in node.keywords
                        if k.arg == "out" and _references_grad_of(k.value, holder)
                    ]
                    if (mutating and hits) or (not mutating and any(
                        k.arg == "out" and _references_grad_of(k.value, holder)
                        for k in node.keywords
                    )):
                        ctx.report(
                            node,
                            "REPRO008",
                            "backward closure writes into out.grad via an "
                            "out=/in-place numpy call; the output gradient "
                            "is shared with every other consumer",
                        )


_CHECKS = (
    _check_unbroadcast,
    _check_forward_detach,
    _check_grad_guard,
    _check_mutable_defaults,
    _check_inplace_data,
    _check_sequential_channels,
    _check_backward_closure_hazards,
)


def lint_source(
    source: str, path: str = "<string>", rules: set[str] | None = None
) -> list[LintDiagnostic]:
    """Lint python ``source``; returns diagnostics sorted by position."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintDiagnostic(
                path, exc.lineno or 0, exc.offset or 0, "REPRO000",
                f"syntax error: {exc.msg}",
            )
        ]
    ctx = _Context(path=path, suppressed=_noqa_lines(source))
    for check in _CHECKS:
        check(tree, ctx)
    _check_unused_imports(tree, ctx, path)
    diagnostics = ctx.diagnostics
    if rules is not None:
        diagnostics = [d for d in diagnostics if d.code in rules]
    return sorted(diagnostics, key=lambda d: (d.path, d.line, d.col, d.code))


def lint_file(path: str | Path, rules: set[str] | None = None) -> list[LintDiagnostic]:
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path), rules)


def lint_paths(
    paths: list[str | Path], rules: set[str] | None = None
) -> list[LintDiagnostic]:
    """Lint files and/or directories (recursing into ``*.py``)."""
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    diagnostics: list[LintDiagnostic] = []
    for f in files:
        diagnostics.extend(lint_file(f, rules))
    return diagnostics
