"""Rescaling measured times by how fast the host ran while they were taken.

On a shared virtual machine (2 vCPUs of an Intel Xeon host, CPython 3.11)
the speed changes by up to 1.7x over seconds to minutes, on both vCPUs and in
process CPU time as much as in wall time: the same pass over the same checks
reads anywhere from 4.0 s to 6.3 s.  No statistic over one 30-second run
hides a slow spell that outlasts the run.  So each worker times a fixed
pure-Python kernel, which no change to ``toyshtlab`` can speed up, every
PROBE_INTERVAL_S of wall time from a SIGALRM handler, and rescales a
measured interval:

    rescaled = (measured - kernel time inside it) * PROBE_REF_S / mean kernel time

``PROBE_REF_S`` is the kernel's mean time, run between the checks' own code,
while that machine ran at its fastest, so there a rescaled time is close to
the plain one; elsewhere it is the plain time in units of that machine's
speed.  A kernel run takes about 0.5 ms: shorter ones start with cold caches,
slow down twice as much as the program on a slow host and do not track it.
This one tracks it to within about 6% over a 1.7x slow-down.  The handler
costs about 1% of the run and is subtracted.  The raw times stay in the run
record.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.05
PROBE_LOOP = 4000
PROBE_REF_S = 570e-6
# kernel runs before and after a timed interval, so a short one (an import
# of 50 ms holds one probe at most) still has a speed estimate
BURST = 5


def _kernel() -> float:
    t = time.perf_counter()
    acc, table = 0, {}
    for i in range(PROBE_LOOP):
        acc = (acc * 31 + i) % 1000003
        table[i & 63] = (acc, i)
    return time.perf_counter() - t


class HostSpeed:
    """Kernel times taken every PROBE_INTERVAL_S while started."""

    def __init__(self):
        self.times: list = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda *_: self.times.append(_kernel()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> int:
        return len(self.times)

    @staticmethod
    def burst() -> list:
        return [_kernel() for _ in range(BURST)]

    def rescale(self, measured: float, since: int, until: int, around: list) -> float:
        """``measured`` seconds, taken while probes ``since:until`` ran,
        rescaled by the mean of those probes and the ``around`` bursts."""
        inside = self.times[since:until]
        return (measured - sum(inside)) * PROBE_REF_S / statistics.fmean(inside + around)
