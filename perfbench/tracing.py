"""Pass-through wrappers: span tracing for the traced run, probes for the checks.

Nothing under ``src/`` changes.  Every wrapper replaces one name in the
namespace that calls it (a module global, a class attribute or an
instance attribute), calls the original and returns its result
unchanged.  :class:`Patches` remembers each replacement so it can be
undone.

* :class:`Tracer` records spans ``(name, start, end, parent, job)`` in
  memory.  ``layer_metrics`` turns them into self times (a span's
  duration minus the part its direct children cover) and wall-time
  coverage.
* :class:`Capture` keeps the last placement outcome, routing result and
  congestion report of a flow job, so the output checks can inspect what
  ``evaluate_team_on_design`` produced without re-running it.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict


class Patches:
    """Replace attributes and restore the originals on :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object, bool]] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original, had = self._saved.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Tracer:
    """In-memory span recorder.

    ``job`` tags every span opened while it is set; ``counts`` holds
    per-layer counters recorded at the same boundaries as the spans.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job: str | None = None
        self._stack: list[int] = []

    def span(self, name: str):
        """Decorator factory: ``tracer.span("layer.op")(fn)``."""

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                record = [name, 0.0, 0.0, parent, self.job]
                self.spans.append(record)
                self._stack.append(index)
                record[1] = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    self._stack.pop()

            return traced

        return make

    def span_iter(self, name: str):
        """Like :meth:`span` for a generator function: times each ``next``."""

        def make(fn):
            timed_next = self.span(name)(next)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    try:
                        item = timed_next(inner)
                    except StopIteration:
                        return
                    yield item

            return traced

        return make

    def counter(self, key: str, amount=1.0):
        """Decorator factory counting calls (``amount`` may be a callable of
        the result)."""

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.counts[key] += amount(result) if callable(amount) else amount
                return result

            return counted

        return make

    def take(self) -> tuple[list[list], dict[str, float]]:
        """Return and clear what was recorded (stack must be empty)."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts

    def dump(self, path: str) -> None:
        """Append recorded spans and counts to ``path`` as one JSON line."""
        spans, counts = self.take()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"pid": os.getpid(), "spans": spans, "counts": counts}) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive and self seconds.

    ``spans`` must come from one process (parents index into the list).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _parent, _job) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += end - start - child_time[index]
    return out


def covered_seconds(spans: list[list]) -> float:
    """Wall time covered by top-level spans (no parent)."""
    return sum(end - start for _n, start, end, parent, _j in spans if parent is None)


def merge_layer_metrics(parts: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for part in parts:
        for name, row in part.items():
            into = merged.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                into[key] += value
    return merged


class Capture:
    """Last outputs of the flow stages, for the output checks."""

    def __init__(self) -> None:
        self.outcome = None
        self.routing = None
        self.report = None

    def install(self, patches: Patches) -> None:
        """Probe the names ``evaluate_team_on_design`` calls."""
        import repro.contest.evaluate as evaluate

        def keep(attr):
            def make(fn):
                @functools.wraps(fn)
                def probe(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    setattr(self, attr, result)
                    return result

                return probe

            return make

        patches.wrap(evaluate, "place_design", keep("outcome"))
        patches.wrap(evaluate, "route_design", keep("routing"))
        patches.wrap(evaluate, "congestion_report", keep("report"))

    def take(self):
        got = (self.outcome, self.routing, self.report)
        self.outcome = self.routing = self.report = None
        return got
