"""CPU-speed calibration for wall times.

On a shared virtual machine the CPU speed changes by up to 2x, in
stretches from under a second to many minutes, so raw wall times from two
runs, or two seeds, disagree by far more than any change worth
gating.  While a `Clock` is active it runs a short fixed loop of mpmath
arithmetic, `kernel`, every INTERVAL_S of wall time from a SIGALRM
handler, so also in the middle of a long operation.  An interval's wall
time, less the time spent in the handler, is expressed in reference seconds:
the time it would take on a CPU that runs the loop in REF_S seconds.
Library work and the loop are the same kind of work (Python-level
multi-precision arithmetic), so they speed up and slow down together.

No thread is started: the handler runs in the main thread between two
bytecodes of whatever was running.  The loop calls `mpmath.libmp`
directly with an explicit precision, so it never touches the
process-global mpmath context that the interrupted code may rely on.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter
from typing import List, NamedTuple, Tuple

from mpmath import libmp

REF_S = 0.001  # the loop's time at the reference speed
INTERVAL_S = 0.1  # wall time between samples
PREC = 200  # bits, about 60 digits
STEPS = 120


def kernel() -> float:
    """Wall time of a fixed loop of 200-bit libmp arithmetic (about 1 ms)."""
    t0 = perf_counter()
    x = libmp.mpf_sqrt(libmp.from_int(2), PREC)
    s = libmp.fone
    for k in range(1, STEPS):
        kk = libmp.from_int(k)
        s = libmp.mpf_div(libmp.mpf_add(libmp.mpf_mul(s, x, PREC), kk, PREC),
                          libmp.mpf_add(kk, x, PREC), PREC)
    return perf_counter() - t0


class Interval(NamedTuple):
    first: int  # index of the first sample taken after the interval began
    end: int  # one past the last sample taken before it ended
    work_s: float  # wall seconds, less the time spent taking samples


class Clock:
    """Speed samples while active (`with Clock() as clock:`), and timed
    intervals measured against them.  A sample is taken on entry and on
    exit, so every interval has a sample before it and one after it."""

    def __init__(self) -> None:
        self.samples: List[float] = []  # loop seconds, in order
        self.pauses: List[float] = []  # wall seconds each sample took
        self._old_handler = None

    def _sample(self, *_signal) -> None:
        t0 = perf_counter()
        loop = kernel()
        self.pauses.append(perf_counter() - t0)
        self.samples.append(loop)

    def __enter__(self) -> "Clock":
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()

    @contextlib.contextmanager
    def held(self):
        """No sample inside the block, for work done by a child process:
        on the same CPU, a sample would compete with the child and read
        the machine as slow.  A sample that falls due meanwhile is taken
        as the block ends."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    # A sample can land between reading the clock and reading the sample
    # count.  The order of the reads below leaves such a sample's time in
    # the interval (about 1 ms too much) rather than taking it out twice.

    def start(self) -> Tuple[float, int]:
        t0 = perf_counter()
        return t0, len(self.samples)

    def stop(self, mark: Tuple[float, int]) -> Interval:
        t0, first = mark
        end = len(self.samples)
        wall = perf_counter() - t0
        return Interval(first, end, wall - sum(self.pauses[first:end]))

    def reference_s(self, interval: Interval) -> float:
        """The interval's work time in reference seconds.  The speed is the
        mean over the samples taken during it, or, for an interval too
        short to hold one, over the samples just before and after it."""
        first, end = interval.first, interval.end
        loops = self.samples[first:end] or self.samples[first - 1:first + 1]
        return interval.work_s * REF_S / statistics.fmean(loops)
