"""Machine-speed gauge: scales wall times to a reference speed.

On a shared machine the speed of one core drifts by 10-40% over seconds to
minutes, because of other tenants.  On the machine the benchmark was
written on, the median call time of 30 s runs spread by up to 34% between
runs (quartile distance over median), wider than any bound could be.  The
gauge times a fixed kernel of pure-Python exact arithmetic, which shares no
code with hext, between CLI calls.  A call's wall time is multiplied by
REF_KERNEL_S over the mean of the gauge samples taken just before and just
after it, so a reported time reads as seconds on a machine where the kernel
takes REF_KERNEL_S.  In one set of ten runs per workload the scaled medians
spread by 3-8%, the raw ones by 9-18%.  Raw wall times are kept in the run
record next to the scaled ones.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

KERNEL_STEPS = 1000
# median kernel time on the machine the benchmark was written on
# (Intel Xeon VM, 2 vCPUs, Python 3.11.7)
REF_KERNEL_S = 0.0048
EVERY_S = 0.5  # at most one sample per this many seconds of calls
SAMPLE_S = 0.03  # one sample: the median of kernel repeats over this long


def kernel() -> float:
    """Seconds for a fixed loop of Fraction arithmetic."""
    started = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(KERNEL_STEPS):
        x = x * Fraction(i + 2, i + 1) + Fraction(1, i + 7)
        x = Fraction(x.numerator % 1_000_003 + 1, x.denominator % 1_000_033 + 1)
    return time.perf_counter() - started


def sample() -> float:
    """Median kernel time over at least three repeats and SAMPLE_S."""
    times = []
    started = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - started < SAMPLE_S:
        times.append(kernel())
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds."""
    return REF_KERNEL_S / (0.5 * (before + after))


class Gauge:
    """Samples taken along a run of calls."""

    def __init__(self):
        self.samples = [sample()]
        self._last = time.perf_counter()

    def tick(self, force: bool = False) -> None:
        """Take a sample if EVERY_S has passed since the last one, or if forced."""
        if force or time.perf_counter() - self._last >= EVERY_S:
            self.samples.append(sample())
            self._last = time.perf_counter()

    def factor(self, index: int) -> float:
        """Scale for a call made between samples `index` and `index + 1`."""
        return scale(self.samples[index], self.samples[index + 1])
