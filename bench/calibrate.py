"""Machine-speed calibration for timings taken on a shared machine.

The effective speed of a machine shared with other tenants swings by up to
2x, in phases that last from seconds to minutes.  Wall and CPU time swing
together, so neither cancels it.  A ``Clock`` therefore times a fixed kernel
that does not use emu next to every op, and ``factor`` turns a wall time
into reference-machine time: wall time times ``REFERENCE_S`` over the kernel
time measured around it.

The kernel does the kinds of work emu does: an interpreter loop, numpy
passes over a 2 MiB array, lookups in a 50,000-entry dict (a working set of
Python objects) and numpy calls on 32-element arrays.  Under load from
other tenants the last two slow down more than the first two, as emu's
small-array ops do; without them the kernel under-corrected the slow phases
of ``inf-small`` and ``oracle-check``.

The kernel allocates no large arrays, and its buffers are never freed.  A
freed 2 MiB array raises the C allocator's mmap threshold, so the kernel's
time would otherwise depend on what the ops before it freed (up to 1.7x on
the same machine), and the kernel would change how the ops allocate.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Median kernel time on the reference machine (2 cores, Python 3.11,
# numpy 2.4) in its fast phase.
REFERENCE_S = 0.005
SAMPLE_EVERY_S = 0.5
REPEATS = 3


class Clock:
    """Samples the kernel at most every ``SAMPLE_EVERY_S`` between ops."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.arange(1 << 18, dtype=np.int64)
        np.remainder(self._a, 101, out=self._a)
        self._b = np.empty_like(self._a)
        self._c = np.empty_like(self._a)
        self._small = [np.arange(32, dtype=np.int64) % m for m in (5, 7, 11, 13)]
        self._dict = {i: i * 7 % 1013 for i in range(50_000)}
        self.times: list[float] = []      # when each sample was taken
        self.seconds: list[float] = []    # median kernel time of the sample

    def _kernel(self):
        np, a, b, c = self._np, self._a, self._b, self._c
        t0 = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i
        for _ in range(2):
            np.subtract(a, 3, out=b)
            np.maximum(b, 0, out=b)
            np.minimum(b, 50, out=c)
            c.reshape(512, -1).min(axis=1).max()
        d = self._dict
        for i in range(0, 50_000, 5):
            s += d[i * 31 % 50_000]
        x, y, z, out = self._small
        for _ in range(300):
            np.maximum(x, y, out=out)
            np.minimum(out, z, out=out)
            out.max()
        return time.perf_counter() - t0

    def sample(self):
        t = time.perf_counter()
        self.times.append(t)
        self.seconds.append(statistics.median(self._kernel() for _ in range(REPEATS)))

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start, end):
        """Reference seconds per wall second for an interval.

        Uses the last sample taken before ``start`` and the first taken after
        ``end``, whichever exist.
        """
        i = bisect.bisect_right(self.times, start) - 1
        j = bisect.bisect_left(self.times, end)
        near = [self.seconds[k] for k in (i, j) if 0 <= k < len(self.times)]
        return REFERENCE_S / statistics.mean(near)

    def summary(self):
        return {
            "reference_s": REFERENCE_S,
            "samples": len(self.seconds),
            "median_s": statistics.median(self.seconds) if self.seconds else None,
            "min_s": min(self.seconds, default=None),
            "max_s": max(self.seconds, default=None),
        }
