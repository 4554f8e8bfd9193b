"""Machine speed during a run, from a fixed reference kernel.

A shared machine slows the same code by up to about 1.7x in phases that
last from a second to longer than a run, so the best of several runs of a
case does not hold from one run to the next.  While the benchmark
measures, an interval timer therefore runs a small fixed kernel
(interpreter loop plus small-array numpy, the mix the program's quadrature
has) every REF_EVERY_S seconds, also in the middle of a case.  Each case
run is scaled by REF_NOMINAL_S over the mean kernel time during and just
around it, and the kernel's own time is taken out of the case's time.  The
kernel is the benchmark's code, so a change to the program moves scaled
and raw times alike.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

#: Scaled times read as on a machine where the kernel takes this long (an
#: idle 2-vCPU Intel Xeon virtual machine takes about 0.7 ms).
REF_NOMINAL_S = 1.0e-3
REF_EVERY_S = 0.02

_NODES = np.linspace(0.05, 0.95, 256) + 0.3j


def ref_kernel() -> float:
    """The reference work; returns a value so none of it is skipped."""
    acc = 0.0
    for k in range(1, 1500):
        acc += (k * 7 % 13) / k
    z = _NODES
    for _ in range(30):
        w = np.exp(-z) * np.log1p(z) / (z * z + 1.0)
        acc += float(np.abs(w.sum()))
    return acc


def time_ref() -> float:
    t0 = time.perf_counter()
    ref_kernel()
    return time.perf_counter() - t0


class Pace:
    """Kernel samples of one run, taken on SIGALRM while the run is inside
    the context: start times `at`, durations `ref`, and `spent`, their
    running total, which a caller subtracts from the interval it times."""

    def __init__(self):
        self.at = []
        self.ref = []
        self.spent = 0.0
        self._old = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        ref_kernel()
        dt = time.perf_counter() - t0
        self.at.append(t0)
        self.ref.append(dt)
        self.spent += dt

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def scale(self, t0, t1) -> float:
        """Factor that turns a time measured over [t0, t1] into the time at
        nominal machine speed: REF_NOMINAL_S over the mean kernel time
        during [t0, t1] widened by one and a half sampling intervals on
        each side."""
        lo = bisect.bisect_left(self.at, t0 - 1.5 * REF_EVERY_S)
        hi = bisect.bisect_right(self.at, t1 + 1.5 * REF_EVERY_S)
        if lo == hi:  # none that close: the nearest on each side
            lo, hi = max(lo - 1, 0), hi + 1
        near = self.ref[lo:hi]
        return REF_NOMINAL_S * len(near) / math.fsum(near)
