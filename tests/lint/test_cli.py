"""CLI contract for ``repro lint``: exit codes + diagnostics.

The acceptance bar: exit 0 on the shipped repo, non-zero with file:line
diagnostics on a fixture for each hazard class.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import lint_paths

_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# One deliberately broken fixture per hazard class.
_HAZARDS = {
    "missing_unbroadcast.py": (
        "REPRO001",
        """
def __mul__(self, other):
    other = as_tensor(other)

    def backward(out):
        self._accumulate(out.grad * other.data)

    return Tensor._make(self.data * other.data, (self, other), backward)
""",
    ),
    "tape_detach.py": (
        "REPRO002",
        """
class Head(Module):
    def forward(self, x):
        return np.tanh(x)
""",
    ),
    "unguarded_wiring.py": (
        "REPRO003",
        """
def stitch(a, b):
    out = Tensor(a.data + b.data)
    out._parents = (a, b)
    return out
""",
    ),
    "inplace_mutation.py": (
        "REPRO005",
        """
class Clamp(Module):
    def forward(self, x):
        x.data[x.data < 0] = 0.0
        return x
""",
    ),
    "unseeded_rng.py": (
        "REPRO009",
        """
import numpy as np

rng = np.random.default_rng()
""",
    ),
    "unordered_iteration.py": (
        "REPRO010",
        """
def total(items):
    out = 0.0
    for x in set(items):
        out = out * 0.5 + x
    return out
""",
    ),
}


class TestExitCodes:
    def test_repo_is_clean(self, capsys, cli_lint_paths):
        assert main(["lint", str(_SRC)]) == 0
        assert cli_lint_paths == [_SRC]
        assert "0 findings" in capsys.readouterr().out

    @pytest.mark.parametrize("filename", sorted(_HAZARDS))
    def test_each_hazard_class_fails(self, filename, tmp_path, capsys):
        code, source = _HAZARDS[filename]
        path = tmp_path / filename
        path.write_text(source)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        # file:line:col: CODE message
        assert f"{path}:" in out
        assert code in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.py")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_select_filters(self, tmp_path):
        # Rule selection lives in the library call.
        path = tmp_path / "two_findings.py"
        path.write_text("import os\n\ndef f(x, cache=[]):\n    return cache\n")
        assert [d.code for d in lint_paths([path], {"REPRO004"})] == ["REPRO004"]
        assert lint_paths([path], {"REPRO001"}) == []


class TestReproCliSubcommand:
    def test_repro_lint_defaults_to_the_package(self, capsys, cli_lint_paths):
        assert main(["lint"]) == 0
        assert cli_lint_paths == [_SRC]
        assert "lint: 0 findings" in capsys.readouterr().out
