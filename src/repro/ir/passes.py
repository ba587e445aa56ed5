"""Shared finding helpers for the IR analyses.

Analyses that detect problems return :class:`repro.lint.rules.LintDiagnostic`
findings: they reuse the lint diagnostic format
(``path:line:col: CODE message``) and the shared ``REPROxxx`` code
namespace, and honour the same ``# noqa`` comment suppression — a
finding whose source line carries ``# noqa: REPRO101`` (or a bare
``# noqa``) is dropped by :func:`filter_noqa`.

Rule codes 1xx belong to the IR analyses (the AST lint rules own 0xx):

* ``REPRO101`` — ``exp`` reachable with an unbounded (or too large)
  positive input: overflow to ``inf``; the canonical fix is a
  max-shift, which the tracer recognizes structurally.
* ``REPRO102`` — ``log`` / division / negative power whose operand
  interval contains zero: ``-inf``/``nan`` reachable.
* ``REPRO103`` — implicit mixed-float promotion: a float array operand
  is silently widened by the op's result dtype.
* ``REPRO104`` — random numbers drawn from an unseeded or global
  generator (AST audit of the training/placement call-graph).
* ``REPRO105`` — iteration order of an unordered collection (set,
  ``os.listdir``) can leak into numeric results (AST audit).

Codes and messages are allocated centrally in :mod:`repro.diagnostics`;
``IR_RULES`` is the ir-component view.
"""

from __future__ import annotations

from pathlib import Path

from repro.diagnostics import codes_for
from repro.lint.rules import LintDiagnostic, _noqa_lines

from .graph import Node

__all__ = ["IR_RULES", "node_finding", "filter_noqa"]

IR_RULES = codes_for("ir")


def node_finding(node: Node, code: str, message: str) -> LintDiagnostic:
    """Build a lint-format diagnostic anchored at a graph node's call site."""
    path, line = "<traced>", 0
    if node.src:
        path, _, lineno = node.src.rpartition(":")
        if lineno.isdigit():
            line = int(lineno)
        else:
            path = node.src
    where = f" [%{node.id} {node.op} in {node.scope or '<toplevel>'}]"
    return LintDiagnostic(path, line, 0, code, message + where)


_NOQA_CACHE: dict[str, dict[int, set[str] | None]] = {}


def _suppressions(path: str) -> dict[int, set[str] | None]:
    if path not in _NOQA_CACHE:
        try:
            source = Path(path).read_text(encoding="utf-8")
        except OSError:
            _NOQA_CACHE[path] = {}
        else:
            _NOQA_CACHE[path] = _noqa_lines(source)
    return _NOQA_CACHE[path]


def filter_noqa(findings: list[LintDiagnostic]) -> list[LintDiagnostic]:
    """Drop findings whose source line suppresses their code via # noqa."""
    kept = []
    for f in findings:
        codes = _suppressions(f.path).get(f.line, ())
        if codes is None or (codes and f.code in codes):
            continue
        kept.append(f)
    return kept

