"""How fast the host runs during a pass, against a fixed reference kernel.

A shared 2-vCPU Xeon virtual machine changes speed by up to 2x within
minutes as its neighbours' load comes and goes, and process CPU time
grows with it (steal time is already excluded); within seconds it moves
by about 15%.  So an untraced pass interleaves short runs of a
fixed kernel with its own work, one every :data:`INTERVAL_S` of CPU time
from its first simulated wave on, and leaves their time out of its own.
The pass's *host speed* is :data:`REFERENCE_S` over the median kernel
time, and its CPU seconds times that speed are *reference seconds*:
about the seconds it would have taken with the host at full speed.

The kernel is the benchmark's own code, never the program's, so a change
to the program cannot move it.  It is mostly the array work the
simulator does (sorts, gathers, scans over arrays larger than the CPU
caches), with some interpreter work, because contention slows the two
by different amounts.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: CPU seconds one :func:`kernel` call takes with the host at full speed:
#: about the fastest it ran on a shared 2-vCPU "Intel Xeon Processor"
#: virtual machine (numpy 2.4, CPython 3.11), where 760 calls took 20.7
#: to 41 ms, median 25 ms.  The benchmark's bounds were set there.
REFERENCE_S = 0.020

#: CPU seconds of the pass's own work between two kernel runs.
INTERVAL_S = 0.4

_rng = np.random.default_rng(20200518)
_KEYS = _rng.integers(0, 1 << 22, 100_000)
_VALUES = _rng.random(1 << 19)


def kernel() -> None:
    """A fixed amount of array and interpreter work."""
    counts: dict[int, int] = {}
    for i in range(10_000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
    keys = np.sort(_KEYS)
    np.unique(keys)
    _VALUES[keys & ((1 << 19) - 1)].sum()
    np.cumsum(_VALUES)


class Sampler:
    """Runs :func:`kernel` every :data:`INTERVAL_S` of CPU time."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        #: CPU seconds of each kernel run.
        self.samples: list[float] = []
        #: CPU seconds the sampling took, to leave out of the pass.
        self.spent_s = 0.0
        self._next_at: float | None = None

    def tick(self) -> None:
        """Run the kernel if it is due; the first tick only starts the clock."""
        now = time.process_time()
        if self._next_at is None:
            self._next_at = now + self.interval_s
            return
        if now < self._next_at:
            return
        t0 = time.process_time()
        kernel()
        t1 = time.process_time()
        self.samples.append(t1 - t0)
        self.spent_s += t1 - now
        self._next_at = t1 + self.interval_s

    @property
    def speed(self) -> float | None:
        """Host speed over the samples; None before the first one."""
        if not self.samples:
            return None
        return REFERENCE_S / statistics.median(self.samples)
