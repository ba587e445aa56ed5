"""Determinism audit: unseeded randomness and order-sensitive iteration.

A reproduction lives or dies by bit-for-bit repeatability, and the two
classic ways to lose it never crash:

* ``REPRO104`` — randomness without an explicit seed: calling
  ``np.random.default_rng()`` with no seed, any use of the legacy
  global ``np.random.*`` API (its state is process-global and shared),
  or the stdlib ``random`` module's global functions.  The fixed
  convention in this codebase is ``np.random.default_rng(seed)``
  threaded explicitly (see ``train.seed``/``placement``).
* ``REPRO105`` — iterating an unordered collection where the order can
  reach numeric results: ``for … in <set>``, iterating
  ``set(...)``/``frozenset(...)``/set unions, or ``os.listdir`` not
  wrapped in ``sorted()`` (directory order is filesystem-dependent).

This is an AST audit over the placement/training call-graph (not the
traced tensor graph — the traced forward is deterministic by
construction once dropout is off).  Findings use the shared lint
diagnostic format and honour ``# noqa``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.rules import LintDiagnostic, _noqa_lines

__all__ = ["audit_determinism", "audit_file", "DEFAULT_AUDIT_PACKAGES"]

# Packages audited by default, relative to the repro package root:
# everything whose results feed training, placement or the contest
# tables, where hidden nondeterminism corrupts results silently.
DEFAULT_AUDIT_PACKAGES = (
    "placement", "train", "data", "models", "nn", "eval",
    "netlist", "routing", "contest", "features", "arch", "orchestrate",
    "resilience",
)

_LEGACY_NP_RANDOM = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "seed", "get_state", "set_state",
}
_STDLIB_RANDOM = {
    "random", "randint", "randrange", "uniform", "gauss", "choice",
    "choices", "shuffle", "sample", "seed",
}


def _dotted(node: ast.AST) -> str:
    """``np.random.default_rng`` -> "np.random.default_rng" (best effort)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class _Auditor(ast.NodeVisitor):
    def __init__(self, path: str, suppressed: dict) -> None:
        self.path = path
        self.suppressed = suppressed
        self.findings: list[LintDiagnostic] = []

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        codes = self.suppressed.get(line, ())
        if codes is None or (codes and code in codes):
            return
        self.findings.append(
            LintDiagnostic(self.path, line, getattr(node, "col_offset", 0), code, message)
        )

    # -- REPRO104 --------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name.endswith("default_rng") and not node.args and not node.keywords:
            self._report(
                node,
                "REPRO104",
                "default_rng() without a seed draws from OS entropy; pass an "
                "explicit seed so runs are repeatable",
            )
        elif name.startswith(("np.random.", "numpy.random.")):
            tail = name.rsplit(".", 1)[-1]
            if tail in _LEGACY_NP_RANDOM:
                self._report(
                    node,
                    "REPRO104",
                    f"legacy global np.random.{tail}() shares process-wide "
                    "state; use an explicitly seeded np.random.default_rng "
                    "Generator",
                )
        elif name.startswith("random.") and name.split(".")[1] in _STDLIB_RANDOM:
            self._report(
                node,
                "REPRO104",
                f"stdlib {name}() uses the global random state; use a seeded "
                "np.random.default_rng Generator",
            )
        self.generic_visit(node)

    # -- REPRO105 --------------------------------------------------------------

    def _order_hazard(self, iter_node: ast.AST) -> str | None:
        if isinstance(iter_node, ast.Set) or isinstance(iter_node, ast.SetComp):
            return "a set literal"
        if isinstance(iter_node, ast.Call):
            name = _dotted(iter_node.func)
            if name in ("set", "frozenset"):
                return f"{name}(...)"
            if name.endswith(("os.listdir", "listdir")) and name.count(".") <= 1:
                return "os.listdir(...) (filesystem order)"
            if name.endswith((".union", ".intersection", ".difference",
                              ".symmetric_difference")):
                return f"{name.rsplit('.', 1)[-1]}(...) of sets"
        if isinstance(iter_node, ast.BinOp) and isinstance(
            iter_node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
        ):
            left = self._order_hazard(iter_node.left)
            right = self._order_hazard(iter_node.right)
            if left or right:
                return "a set expression"
        return None

    def visit_For(self, node: ast.For) -> None:
        hazard = self._order_hazard(node.iter)
        if hazard:
            self._report(
                node,
                "REPRO105",
                f"iteration over {hazard} has no defined order; wrap in "
                "sorted(...) before results depend on it",
            )
        self.generic_visit(node)

    def visit_comprehension_iter(self, comp: ast.comprehension) -> None:
        hazard = self._order_hazard(comp.iter)
        if hazard:
            self._report(
                comp.iter,
                "REPRO105",
                f"comprehension over {hazard} has no defined order; wrap in "
                "sorted(...)",
            )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        for comp in node.generators:
            self.visit_comprehension_iter(comp)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        for comp in node.generators:
            self.visit_comprehension_iter(comp)
        self.generic_visit(node)


def audit_file(path: str | Path) -> list[LintDiagnostic]:
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            LintDiagnostic(
                str(path), exc.lineno or 0, exc.offset or 0, "REPRO000",
                f"syntax error: {exc.msg}",
            )
        ]
    auditor = _Auditor(str(path), _noqa_lines(source))
    auditor.visit(tree)
    return auditor.findings


def audit_determinism(paths: list[str | Path] | None = None) -> dict:
    """Audit python files (default: the training/placement packages)."""
    if paths is None:
        package_root = Path(__file__).resolve().parents[1]
        paths = [
            package_root / sub
            for sub in DEFAULT_AUDIT_PACKAGES
            if (package_root / sub).is_dir()
        ]
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    findings: list[LintDiagnostic] = []
    for f in files:
        findings.extend(audit_file(f))
    findings.sort(key=lambda d: (d.path, d.line, d.col))
    return {"audited_files": len(files), "findings": findings}
