"""Shared baseline check/update machinery.

Every analysis package pins its deterministic output slice to a JSON
file under ``benchmarks/`` and diffs against it in CI.  Before this
module, each package (``ir``, ``adjoint``, ``perf``, ``concheck``)
carried its own copy of the same three moves; they now share one
implementation:

* :func:`diff_entries` — per-(model, preset, grid) record comparison
  driven by the *baseline's* fields, so an older baseline that pins
  fewer numbers still checks cleanly against a richer report.
* :func:`diff_counts` — per-key count comparison for ``by_code`` /
  ``effect_summary``-style dicts.
* :func:`load_baseline` / :func:`write_baseline` — read and atomically
  write (temp file + fsync + rename) the JSON documents, with
  :func:`write_baselines` renaming a whole set into place only after
  every document serialized, so ``repro check --update-baselines``
  never leaves a half-refreshed benchmarks directory.
"""

from __future__ import annotations

import json
import os
import sys

__all__ = [
    "diff_entries",
    "diff_counts",
    "load_baseline",
    "carry_sections",
    "write_baseline",
    "write_baselines",
    "apply_baseline_flags",
]


_ENTRY_KEY = ("model", "preset", "grid")


def _fmt_change(want, got) -> str:
    if isinstance(want, int) and isinstance(got, int) and not (
        isinstance(want, bool) or isinstance(got, bool)
    ):
        return f"{want} -> {got} ({got - want:+d})"
    return f"{want} -> {got}"


def diff_entries(
    expected: list[dict],
    current: list[dict],
    *,
    verb: str = "analyzed",
    missing_field_hint: str | None = None,
) -> list[str]:
    """Diff record lists keyed on (model, preset, grid); comparison
    fields come from the baseline.

    ``verb`` names the action that produced ``current`` ("analyzed",
    "checked"), preserving each package's established message wording.
    """

    def keyed(entries: list[dict]) -> dict[tuple, dict]:
        return {tuple(e[k] for k in _ENTRY_KEY): e for e in entries}

    want_by_key = keyed(expected)
    got_by_key = keyed(current)
    problems: list[str] = []
    for k in sorted(set(want_by_key) | set(got_by_key)):
        model, preset, grid = k
        name = f"{model}/{preset}/grid{grid}"
        if k not in got_by_key:
            problems.append(f"{name}: in baseline but not {verb}")
            continue
        if k not in want_by_key:
            problems.append(
                f"{name}: {verb} but missing from baseline "
                "(run with --update-baseline)"
            )
            continue
        for field in want_by_key[k]:
            if field in _ENTRY_KEY:
                continue
            if field not in got_by_key[k]:
                hint = f" ({missing_field_hint})" if missing_field_hint else ""
                problems.append(
                    f"{name}: baseline pins {field!r} but the report has no "
                    f"such field{hint}"
                )
                continue
            got, want = got_by_key[k][field], want_by_key[k][field]
            if got != want:
                problems.append(
                    f"{name}: {field} changed {_fmt_change(want, got)}"
                )
    return problems


def diff_counts(
    expected: dict, current: dict, *, label: str = "{key} count changed"
) -> list[str]:
    """Diff count dicts; missing keys count as zero."""
    problems = []
    for k in sorted(set(expected) | set(current)):
        got, want = current.get(k, 0), expected.get(k, 0)
        if got != want:
            problems.append(
                f"{label.format(key=k)} {want} -> {got} ({got - want:+d})"
            )
    return problems


def load_baseline(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _serialize(doc: dict) -> str:
    # Matches the historical CLI write format (json.dump + "\n") so
    # refreshing an unchanged baseline is a byte-level no-op.
    return json.dumps(doc, indent=2) + "\n"


def carry_sections(path: str, doc: dict, carry: tuple[str, ...]) -> dict:
    """Fold documented ride-along sections of an existing baseline into ``doc``.

    Some baselines carry sections the checker ignores but humans curate
    (perf's ``"fixes"`` before/after measurements); refreshing the
    deterministic slice must not destroy them.
    """
    if not carry or not os.path.exists(path):
        return doc
    try:
        old = load_baseline(path)
    except (OSError, ValueError):
        return doc
    merged = dict(doc)
    for section in carry:
        if section in old and section not in merged:
            merged[section] = old[section]
    return merged


def write_baseline(path: str, doc: dict, *, carry: tuple[str, ...] = ()) -> None:
    """Write one baseline durably: temp file, fsync, rename into place."""
    doc = carry_sections(path, doc, carry)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(_serialize(doc))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def write_baselines(docs: dict[str, dict]) -> None:
    """Atomically refresh a set of baselines: all serialize, then all land.

    Serialization (and therefore any failure in producing a document)
    happens before the first rename, so a crash mid-update can only
    leave temp files behind, never a mix of old and new baselines.
    """
    tmps = {}
    try:
        for path, doc in docs.items():
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "w") as fh:
                fh.write(_serialize(doc))
                fh.flush()
                os.fsync(fh.fileno())
            tmps[path] = tmp
    except BaseException:
        for tmp in tmps.values():
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise
    for path, tmp in tmps.items():
        os.replace(tmp, path)


def apply_baseline_flags(
    args,
    reduced: dict,
    differ,
    *,
    out=None,
    err=None,
    carry: tuple[str, ...] = (),
) -> bool:
    """Handle ``--update-baseline`` / ``--check-baseline`` uniformly.

    ``reduced`` is the package's deterministic slice; ``differ`` maps a
    loaded baseline document to a list of drift messages.  Returns True
    when drift was found (the caller maps that to its drift exit code).
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    drift = False
    if getattr(args, "update_baseline", None):
        write_baseline(args.update_baseline, reduced, carry=carry)
        print(f"baseline written: {args.update_baseline}", file=out)
    if getattr(args, "check_baseline", None):
        problems = differ(load_baseline(args.check_baseline))
        if problems:
            for problem in problems:
                print(f"baseline drift: {problem}", file=err)
            drift = True
        else:
            print(f"baseline OK ({args.check_baseline})", file=out)
    return drift
