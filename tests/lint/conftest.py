"""One lint of the shipped package, shared by every test that needs it."""

from pathlib import Path

import pytest

from repro.lint import lint_paths

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="session")
def package_lint():
    """All rules' findings on ``src/repro`` (linting it takes ~2 s)."""
    return lint_paths([SRC])


@pytest.fixture
def cli_lint_paths(monkeypatch, package_lint):
    """Point ``repro lint`` at the shared package lint.

    Returns the resolved paths the command asked to lint, so a test can
    check what it would have linted without linting the package again.
    """
    import repro.lint.rules as lint_rules

    seen: list[Path] = []

    def lint_paths(paths, rules=None):
        seen.extend(Path(p).resolve() for p in paths)
        return package_lint

    monkeypatch.setattr(lint_rules, "lint_paths", lint_paths)
    return seen
