"""Host speed sampling, so that timings compare across runs.

The host this benchmark was defined on runs a core at one of two speeds,
about 1.5x apart, switching every few seconds and sometimes staying slow for
minutes (apparently another tenant on the same physical core).  That is far more than
the changes the benchmark must resolve.  While ops run, a timer signal
interrupts the main thread every EVERY_S seconds and times a small fixed
calibration kernel (dict-heavy Python, small-stack LAPACK and stacked array
math, like the program's own mix).  An op's reference time is its wall time,
less the kernel time spent inside it, scaled by REF_S over the mean kernel
time during the op: the time the op would have taken at the speed where the
kernel takes REF_S seconds.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np


class Speed:
    REF_S = 0.00175  # kernel time on an uncontended core of the 2-core x86 host
    EVERY_S = 0.1

    def __init__(self):
        rng = np.random.default_rng(0)
        S = rng.standard_normal((64, 3, 3))
        self._stack = S + S.transpose(0, 2, 1)
        self._big = rng.standard_normal((512, 3, 3))
        self._poly = {(i, j, 6 - i - j): 1.0 + i - j
                      for i in range(7) for j in range(7 - i)}
        self._starts: list[float] = []
        self._ends: list[float] = []

    def _kernel(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        for _ in range(2):      # dict-of-monomials product, as in poly_mul
            out: dict = {}
            for e1, c1 in self._poly.items():
                for e2, c2 in self._poly.items():
                    key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    out[key] = out.get(key, 0.0) + c1 * c2
        for _ in range(8):      # small-stack LAPACK and stacked array math
            np.linalg.eigvalsh(self._stack)
            np.einsum("nij,njk->nik", self._big, self._big).sum()
        self._starts.append(t0)
        self._ends.append(time.perf_counter())

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel every EVERY_S seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._kernel)
        self._kernel()
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._kernel()

    def timed(self, fn) -> tuple[float, float]:
        """Wall and reference time of fn(), with kernel runs just before and
        after it (for calls that must not be interrupted, like waiting on a
        subprocess, which the timer would slow by running the kernel on the
        other core)."""
        self._kernel()
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        self._kernel()
        return self.split(t0, t1)

    def split(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall time of [t0, t1] less kernel time, the same at REF_S speed).

        The signal handler runs between bytecodes, so each kernel run lies
        wholly inside or wholly outside an interval timed by the caller.
        Without a run inside, the nearest runs before and after are used.
        """
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_right(self._ends, t1)
        inside = [self._ends[k] - self._starts[k] for k in range(lo, hi)]
        near = inside or [self._ends[k] - self._starts[k]
                          for k in (lo - 1, hi) if 0 <= k < len(self._starts)]
        wall = t1 - t0 - sum(inside)
        return wall, wall * self.REF_S / statistics.fmean(near)

    def slowdown(self) -> float:
        """Median kernel time over REF_S for the whole run."""
        return statistics.median(
            e - s for s, e in zip(self._starts, self._ends)) / self.REF_S
