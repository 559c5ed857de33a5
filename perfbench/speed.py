"""Machine-speed reference for the benchmark's times.

On a shared machine the speed of the same code drifts by up to 2x over tens
of seconds, in phases longer than a request but shorter than a run, so raw
run-level times spread far wider than any regression worth catching.  A
fixed pure-Python kernel, owned by the benchmark and independent of the
program, is timed between requests, and each request's time is scaled by
``(NOMINAL_S / k) ** EXPONENT``, where k is the median kernel time around
it.  The kernel feels the machine's phases more strongly than the program
does: on a 2-vCPU Xeon VM shared with other tenants (Python 3.11), the log
of a run's raw request times rose by 0.4-0.6 per unit of the log of its
median kernel time over 40 runs of all three workloads, and by 0.6-0.8
(0.7 on average) over 60 later runs whose kernel medians ranged from 13 to
28 ms.  An exponent of 0.5 left two sets of ten runs, one taken while the
machine ran slow throughout, 5-16% apart in their medians; 0.7 brings
them within 4%.  A slower program still reads slower; a machine that
slows down for a while reads much less so.  Raw times are reported beside
the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

NOMINAL_S = 0.020   # kernel time of the nominal machine
EXPONENT = 0.7      # program time moves as the kernel time to this power
WINDOW = 3          # kernel samples taken into account on each side


def _pairs(n: int):
    for i in range(n):
        yield i, i & 7


def kernel() -> int:
    """Generator, tuple, string, dict and big-int work, the kinds of work
    the program's inner loops do, in a small heap; about 20 ms."""
    total = 0
    for _ in range(7):
        parts = [f"t{a},{b}" for a, b in _pairs(5_000)]
        table = {tok: len(tok) for tok in "|".join(parts).split("|")}
        total += len(table)
    x = 1
    for _ in range(300):
        x = x * 3 + (x >> 5)
    return total + x.bit_length()


class SpeedTrack:
    """Kernel timings taken through a run, in order."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the kernel now; returns the sample's index."""
        # With the collector off the kernel's time does not depend on how
        # many objects the benchmark holds, only on the machine.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel()
            self.samples.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor for work done between samples ``index`` and ``index + 1``."""
        window = self.samples[max(0, index - WINDOW + 1):index + 1 + WINDOW]
        return (NOMINAL_S / statistics.median(window)) ** EXPONENT
