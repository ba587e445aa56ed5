"""Documentation consistency: the docs must match the code.

These tests keep README/DESIGN/EXPERIMENTS/API honest: every file the
docs point at exists, every ``repro.*`` symbol API.md names is actually
importable, and the examples the README lists are present.
"""

import importlib
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (_ROOT / name).read_text()


class TestReadme:
    def test_exists_and_mentions_paper(self):
        text = _read("README.md")
        assert "Multiscale Feature Attention" in text
        assert "DATE 2025" in text

    def test_listed_examples_exist(self):
        text = _read("README.md")
        for match in re.finditer(r"examples/(\w+\.py)", text):
            assert (_ROOT / "examples" / match.group(1)).exists(), match.group(0)

    def test_linked_docs_exist(self):
        text = _read("README.md")
        for name in ("DESIGN.md", "EXPERIMENTS.md", "docs/API.md"):
            assert name in text
            assert (_ROOT / name).exists()

    def test_quickstart_code_runs(self):
        """The README's inline Python block must execute as written."""
        text = _read("README.md")
        block = re.search(r"```python\n(.*?)```", text, re.DOTALL)
        assert block is not None
        code = block.group(1).replace("scale=1/64", "scale=1/256")
        exec(compile(code, "README.md", "exec"), {})


class TestDesignDoc:
    def test_lists_every_subpackage(self):
        text = _read("DESIGN.md")
        for package in (
            "repro.nn", "repro.arch", "repro.netlist", "repro.placement",
            "repro.routing", "repro.features", "repro.models",
            "repro.train", "repro.contest",
        ):
            assert package.split(".")[1] in text

    def test_experiment_index_names_real_benches(self):
        text = _read("DESIGN.md")
        for match in re.finditer(r"benchmarks/(test_\w+\.py)", text):
            assert (_ROOT / "benchmarks" / match.group(1)).exists(), match.group(0)


class TestExperimentsDoc:
    def test_references_results_artifacts_generated_by_benches(self):
        text = _read("EXPERIMENTS.md")
        bench_sources = "".join(
            p.read_text() for p in (_ROOT / "benchmarks").glob("test_*.py")
        )
        for match in sorted(set(re.findall(r"results/(\w+)\.txt", text))):
            assert f'"{match}"' in bench_sources, (
                f"EXPERIMENTS.md references results/{match}.txt but no bench "
                "writes it"
            )

    def test_paper_averages_match_reference_module(self):
        text = _read("EXPERIMENTS.md")
        # Spot-check two transcribed numbers against the reference module.
        assert "0.885" in text  # paper ours ACC
        assert "36.57" in text  # paper UTDA S_score


class TestDiagnosticsDoc:
    def test_every_registered_code_documented(self):
        """DIAGNOSTICS.md must list every REPROxxx code with the right
        severity, and must not document codes that don't exist."""
        from repro.diagnostics import all_codes

        text = _read("docs/DIAGNOSTICS.md")
        registered = all_codes()
        documented = set(re.findall(r"\bREPRO\d{3}\b", text))
        # REPRO000 (syntax-error sentinel) is not a registered rule.
        assert documented - {"REPRO000"} == set(registered)
        for code, spec in registered.items():
            row = next(
                (line for line in text.splitlines()
                 if line.startswith(f"| {code} ")), None
            )
            assert row is not None, f"{code} has no table row"
            severity = "blocking" if spec.blocking else "advisory"
            assert row.rstrip("| ").endswith(severity), (
                f"{code} documented with wrong severity (want {severity})"
            )

    def test_bug_ledger_names_live_regression_tests(self):
        """Every regression test the real-bug ledger names must exist,
        so deleting an analyzer band cannot silently take one along."""
        ledger = _read("docs/DIAGNOSTICS.md").split("## The registry")[0]
        checked = 0
        for row in re.findall(r"^\| \w+ \|.*\|(.*)\|$", ledger, re.MULTILINE):
            source = None
            for ref in re.findall(r"`([^`]+)`", row):
                path, _, name = ref.partition("::")
                if path:
                    source = (_ROOT / path).read_text()
                if name:
                    assert re.search(rf"(class|def) {name}\b", source), ref
                checked += 1
        assert checked >= 10  # the ledger really was scanned

    def test_linked_from_readme_and_api(self):
        assert "docs/DIAGNOSTICS.md" in _read("README.md")
        assert "DIAGNOSTICS.md" in _read("docs/API.md")
        assert (_ROOT / "docs" / "DIAGNOSTICS.md").exists()


class TestOrchestrationDoc:
    def test_exists_and_covers_the_runtime(self):
        text = _read("docs/ORCHESTRATION.md")
        for topic in (
            "heartbeat", "quarantine", "journal", "resume",
            "SeedSequence", "bitwise", "ChaosConfig",
        ):
            assert topic in text, f"ORCHESTRATION.md does not cover {topic}"

    def test_documents_every_orchestrate_code(self):
        from repro.diagnostics import codes_for

        text = _read("docs/ORCHESTRATION.md")
        for code in codes_for("orchestrate"):
            assert code in text, f"ORCHESTRATION.md does not mention {code}"

    def test_linked_from_readme_and_api(self):
        assert "docs/ORCHESTRATION.md" in _read("README.md")
        assert "ORCHESTRATION.md" in _read("docs/API.md")
        assert (_ROOT / "docs" / "ORCHESTRATION.md").exists()


class TestApiDoc:
    def test_exit_code_table_matches_cli_constants(self):
        """API.md's exit-code table and the CLI constants must agree."""
        from repro import cli

        text = _read("docs/API.md")
        rows = dict(
            re.findall(r"^\| (\d) \| `(EXIT_\w+)` \|", text, re.MULTILINE)
        )
        assert len(rows) == 5
        for value, name in rows.items():
            assert getattr(cli, name) == int(value)

    def test_every_backticked_symbol_importable(self):
        """Symbols written as `name` in a module section must exist there."""
        text = (_ROOT / "docs" / "API.md").read_text()
        sections = re.split(r"^## ", text, flags=re.MULTILINE)[1:]
        checked = 0
        for section in sections:
            header = section.splitlines()[0]
            modules = re.findall(r"`(repro(?:\.\w+)+)`", header)
            if not modules:
                continue
            module = importlib.import_module(modules[0])
            for name in re.findall(r"^\| `(\w+)[`(]", section, re.MULTILINE):
                assert hasattr(module, name), (
                    f"{modules[0]} lacks documented symbol {name}"
                )
                checked += 1
        assert checked > 50  # the doc really was scanned
