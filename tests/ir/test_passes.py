"""IR rule codes and the shared # noqa suppression of graph findings."""

import numpy as np

from repro.diagnostics import codes_for
from repro.ir.graph import Graph
from repro.ir.stability import node_finding
from repro.lint.rules import RULES as LINT_RULES, filter_noqa


class TestRuleTable:
    def test_ir_codes_complete(self):
        assert set(codes_for("ir")) == {"REPRO101", "REPRO102", "REPRO103"}

    def test_namespace_disjoint_from_lint(self):
        # 0xx belongs to the AST lint rules, 1xx to the IR analyses.
        assert not set(codes_for("ir")) & set(LINT_RULES)


class TestNoqa:
    def _finding(self, path, line):
        g = Graph()
        node = g.add("exp", (), (4,), np.float64, bytes=32,
                     src=f"{path}:{line}")
        return node_finding(node, "REPRO101", "exp overflows")

    def test_noqa_drops_graph_finding(self, tmp_path):
        path = tmp_path / "layer.py"
        path.write_text("x = 1\ny = exp(x)  # noqa: REPRO101\n")
        assert filter_noqa([self._finding(str(path), 2)]) == []

    def test_other_code_kept(self, tmp_path):
        path = tmp_path / "layer.py"
        path.write_text("x = 1\ny = exp(x)  # noqa: REPRO102\n")
        kept = filter_noqa([self._finding(str(path), 2)])
        assert [f.code for f in kept] == ["REPRO101"]

    def test_finding_format_matches_lint(self, tmp_path):
        path = tmp_path / "layer.py"
        path.write_text("y = exp(x)\n")
        finding = self._finding(str(path), 1)
        assert str(finding).startswith(f"{path}:1:0: REPRO101 ")
