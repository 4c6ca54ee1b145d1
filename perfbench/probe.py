"""Host-speed probe: puts timed intervals on a shared host at one fixed speed.

On a host shared with other tenants the same pass of identical work can
take anywhere from 1x to 2x its unloaded time, and the slow spells last
from milliseconds to minutes, so even medians over whole runs drift. The
process is not waiting (CPU time tracks wall time): the host runs it more
slowly. The probe measures that slowdown while the workload runs.

A ``Probe`` sets an interval timer. Each SIGALRM runs a small fixed kernel
of stdlib work (``Fraction`` sums, tuple hashing and bit loops, the
operations the package spends its time on) in the main thread, between two
of the workload's bytecodes, and records how long it took. The samples are
spread evenly over the interval in wall time, so the mean of
``REFERENCE_S / k`` over them is the share of the reference speed that the
host gave over the interval. ``corrected`` scales an interval's seconds,
less the probe's own time, by that share: the result is the interval's
length had the host run at the speed at which the kernel takes
``REFERENCE_S``.

The kernel uses nothing from the package, so a change to the package moves
the corrected time as it moves the work and leaves the probe alone. The
correction is only as good as the kernel's likeness to the workload: on a
loaded host the corrected times of a workload still spread by a few
percent, against 15-20 % for the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from itertools import combinations

# The kernel's time, run from the handler, on a 2-vCPU Xeon VM with Python
# 3.11 when the host is not loaded (the tenth percentile of its samples on a
# loaded host). On that VM the corrected times read close to the unloaded
# wall times; elsewhere they are scaled by the ratio of the machines'
# speeds, the same for every run.
REFERENCE_S = 180e-6

# Fixed masks for the kernel's bit loop.
_MASKS = [((0x5A5A5A >> (i % 7)) ^ (i * 0x9E3779)) & 0xFFFFFF for i in range(24)]


def kernel() -> int:
    """A fixed ~0.2 ms of stdlib work in the package's three styles.

    Fraction sums stand for the exact linear algebra, tuple hashing for the
    subset enumerations, and the lowest-bit loop over masks for the
    coloring search. A loaded host slows these by different factors (on
    the VM above, the first two together by up to 2.1x, the bit loop by
    1.8x), so one style alone would over- or under-correct the workloads
    made mostly of another.
    """
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i % 5 + 1, i % 7 + 1)
    acc = s.numerator
    for c in combinations(range(9), 3):
        acc ^= hash(c)
    for v in range(60):
        m = _MASKS[v % 24]
        while m:
            bit = m & -m
            acc ^= bit.bit_length()
            m ^= bit
    return acc


class Probe:
    """Samples the kernel's time every ``interval`` wall seconds while active.

    Use as a context manager around the interval to be timed. ``overhead``
    is the wall time spent in the handler, to be taken off the interval.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.samples: list[float] = []
        self.overhead = 0.0
        self._previous = None

    def _sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        return t0

    def _handler(self, signum, frame) -> None:
        t0 = self._sample()
        self.overhead += time.perf_counter() - t0

    def __enter__(self) -> "Probe":
        self.samples, self.overhead = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # an interval shorter than one tick; not timed
            self._sample()

    def speed(self) -> float:
        """Mean share of the reference speed the host gave over the interval."""
        return statistics.fmean(REFERENCE_S / k for k in self.samples)

    def corrected(self, seconds: float) -> float:
        """``seconds`` measured over the probed interval, at the reference speed."""
        return (seconds - self.overhead) * self.speed()
