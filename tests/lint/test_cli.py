"""CLI contract for ``python -m repro.lint``: exit codes + diagnostics.

The acceptance bar: exit 0 on the shipped repo, non-zero with file:line
diagnostics on a fixture for each hazard class.
"""

from pathlib import Path

import pytest

from repro.lint.cli import main

_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# One deliberately broken fixture per hazard class the issue names.
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
    "shape_mismatch.py": (
        "REPRO006",
        """
net = Sequential(Conv2d(6, 16), ReLU(), Conv2d(32, 8))
""",
    ),
}


class TestExitCodes:
    def test_repo_is_clean(self, capsys):
        assert main([str(_SRC)]) == 0
        assert "0 findings" in capsys.readouterr().out

    @pytest.mark.parametrize("filename", sorted(_HAZARDS))
    def test_each_hazard_class_fails(self, filename, tmp_path, capsys):
        code, source = _HAZARDS[filename]
        path = tmp_path / filename
        path.write_text(source)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        # file:line:col: CODE message
        assert f"{path}:" in out
        assert code in out

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["--select", "REPRO999", str(_SRC)]) == 2

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2
        assert "error" in capsys.readouterr().err

    def test_select_filters(self, tmp_path):
        path = tmp_path / "two_findings.py"
        path.write_text("import os\n\ndef f(x, cache=[]):\n    return cache\n")
        assert main([str(path), "--select", "REPRO004", "--quiet"]) == 1
        assert main([str(path), "--select", "REPRO001", "--quiet"]) == 0


class TestReproCliSubcommand:
    def test_repro_lint_subcommand_forwards(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", str(_SRC), "--quiet"]) == 0
