"""Host-speed calibration: scales measured wall times to the baseline machine's speed.

The measuring VM's speed drifts: passes of identical work run 1.6 s in one
minute and 2.9 s in another, so runs minutes apart disagree by more than
any change worth measuring, however long each run is.  A fixed calibration
kernel, timed in the gaps between the pieces of timed work, measures the
host's speed at that moment, and each piece's wall time is scaled by
``CAL_REF_S`` over the kernel time around it.  The result reads in seconds
on the baseline machine (README, Baseline).

The kernel never calls spintail, so a change to the program cannot move it.
It is a mix of the two kinds of work the program does, because the host's
drift moves them by different amounts: a pure-Python dict and complex
arithmetic loop (compute-bound, like spintail's term algebra; its time swings
by up to 2x with the host, twice as much as the program's) and one streaming
sum over a 32 MiB buffer (memory-bound; it swings less than the program).
With about three quarters of the kernel's time in the loop, the median
``macro_averages`` pass over 30 s windows of one 300 s stretch on the
baseline machine went from an interquartile range of 0.16 of the median to
0.04.  A single kernel timing is noisy, so a piece of work is scaled by the
mean of the ``SAMPLES_PER_GAP`` timings before it and the ones after it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

LOOP_ITERS = 12000
STREAM_BYTES = 32 * 2**20
SAMPLES_PER_GAP = 2
# median kernel seconds on the baseline machine at its usual speed
CAL_REF_S = 0.0106


class HostSpeed:
    def __init__(self):
        # touched once here so that it is resident for the whole run
        self.buffer = np.ones(STREAM_BYTES // 8)
        self.samples: list[float] = []

    def kernel_s(self) -> float:
        table = {}
        t0 = time.perf_counter()
        for i in range(LOOP_ITERS):
            key = i & 1023
            table[key] = table.get(key, 0) + complex(i, 1) * 0.5
        self.buffer.sum()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def gap(self) -> list[float]:
        """Kernel timings taken now, in a gap between pieces of timed work."""
        return [self.kernel_s() for _ in range(SAMPLES_PER_GAP)]

    @staticmethod
    def scaled(wall_s: float, kernel_samples: list[float]) -> float:
        """``wall_s`` in seconds on the baseline machine, given the kernel timings around it."""
        return wall_s * CAL_REF_S / statistics.mean(kernel_samples)
