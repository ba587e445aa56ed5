"""Command-line entry point: ``python -m repro.lint <paths...>``.

Runs the project AST lint rules over files/directories, prints
``path:line:col: CODE message`` per finding and exits 1 if any fire
(2 on usage errors).
"""

from __future__ import annotations

import argparse
import sys

from .rules import RULES, lint_paths

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="static autograd lint for the repro codebase",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="python files or directories to lint (recurses into *.py)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to enable (default: all); "
        f"known: {', '.join(sorted(RULES))}",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary line"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro.lint: error: give paths to lint", file=sys.stderr)
        return 2

    rules = None
    if args.select:
        rules = {code.strip() for code in args.select.split(",") if code.strip()}
        unknown = rules - set(RULES) - {"REPRO000"}
        if unknown:
            print(
                f"repro.lint: error: unknown rule(s) {sorted(unknown)}",
                file=sys.stderr,
            )
            return 2
    try:
        diagnostics = lint_paths(list(args.paths), rules)
    except OSError as exc:
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return 2
    for diagnostic in diagnostics:
        print(diagnostic)
    failures = len(diagnostics)

    if not args.quiet:
        noun = "finding" if failures == 1 else "findings"
        print(f"repro.lint: {failures} {noun}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
