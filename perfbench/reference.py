"""Speed normalisation against a fixed reference kernel.

The machines this benchmark runs on are shared: the speed of one core
moves by 20-100% over seconds as other tenants come and go, far more
than the regressions the benchmark must catch.  So every timing is also
divided by the speed the machine had at that moment, measured with a
fixed kernel that does not depend on the package under test:

* :class:`Reference` runs the kernel from a ``SIGALRM`` handler every
  ``interval`` seconds while a phase is measured, and once around every
  operation.
* The kernel's own time inside a timed call is subtracted from it, so
  only the program's time is charged.
* An operation's time is scaled by ``REF_SECONDS / k``, where ``k`` is
  the mean kernel time sampled within ``PAD`` seconds of the operation:
  the result is the time the operation would take on a machine on which
  the kernel takes ``REF_SECONDS``.

The scale only converts units; comparisons between two commits measured
with the same benchmark code do not depend on it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

REF_SECONDS = 0.009  # kernel time on an unloaded 2-core Xeon sandbox
PAD = 0.3  # seconds around an operation whose kernel samples set its speed


class Reference:
    """Samples the reference kernel; converts raw seconds to reference seconds."""

    def __init__(self, interval: float = 0.2) -> None:
        rng = np.random.default_rng(0)
        self.matrix = rng.random((96, 96))
        self.vector = rng.random(1 << 16)
        self.points = rng.integers(0, 32, size=(6, 2))
        self.slots = rng.integers(0, 2000, size=4000)
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._running = False
        self._previous = None

    def kernel(self) -> None:
        """Fixed work of the kinds the workloads do: small BLAS products,
        streaming elementwise ops, a Python loop, and many numpy calls on
        tiny arrays with scatter-adds (per-net routing, GP bookkeeping)."""
        a = self.matrix
        for _ in range(4):
            a = a @ self.matrix
            a /= a.max()
        v = self.vector
        for _ in range(4):
            v = (v * 1.0001 + 0.5) % 1.0
        acc = 0
        for i in range(10000):
            acc += i * i
        p = self.points
        for _ in range(30):
            np.unique(p, axis=0)
            int(np.argmin(np.abs(p[:, None, :] - p[None, :, :]).sum(-1)[0, 1:]))
            np.add.at(np.zeros(2000), self.slots, 1.0)

    def sample(self, *_signal_args) -> None:
        if self._running:
            return
        self._running = True
        try:
            start = time.perf_counter()
            self.kernel()
            self.starts.append(start)
            self.ends.append(time.perf_counter())
        finally:
            self._running = False

    def __enter__(self) -> "Reference":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def busy(self, start: float, end: float) -> float:
        """Kernel time inside ``[start, end]``."""
        lo = max(bisect.bisect_left(self.ends, start), 0)
        total = 0.0
        for s, e in zip(self.starts[lo:], self.ends[lo:]):
            if s >= end:
                break
            total += max(0.0, min(e, end) - max(s, start))
        return total

    def speed(self, start: float, end: float) -> float:
        """Mean kernel time of the samples within ``PAD`` of ``[start, end]``
        (the nearest sample when none is that close)."""
        lo = bisect.bisect_left(self.ends, start - PAD)
        hi = bisect.bisect_right(self.starts, end + PAD)
        near = self.durations()[lo:hi] if hi > lo else []
        if not near:
            mid = (start + end) / 2
            index = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - mid))
            near = [self.ends[index] - self.starts[index]]
        return sum(near) / len(near)

    def own_seconds(self, result) -> float:
        """A call's seconds without the kernel time spent inside it."""
        if result.reference is not None:
            return result.seconds - result.reference[0]
        return result.seconds - self.busy(result.start, result.start + result.seconds)

    def normalise(self, result) -> float:
        """Reference seconds of a timed call (an ``OpResult`` or a setup)."""
        if result.reference is not None:
            speed = result.reference[1]
        else:
            speed = self.speed(result.start, result.start + result.seconds)
        return self.own_seconds(result) * REF_SECONDS / speed
