"""The package runs on its declared dependencies alone."""

import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"

# ``sys.modules[name] = None`` makes any ``import name`` raise, so an
# undeclared import anywhere in the package fails this probe.
_PROBE = """
import importlib, pkgutil, sys
sys.modules["networkx"] = None
import repro, repro.cli
subpackages = [m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg]
for name in subpackages:
    importlib.import_module("repro." + name)
print(len(subpackages))
"""


def test_imports_without_networkx():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, cwd=_SRC, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 15
