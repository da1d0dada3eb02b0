"""Pass times rescaled to a fixed reference speed of the CPU.

The benchmark runs on a few virtual CPUs of a shared host, whose speed
changes by up to a factor of two, in episodes that last from seconds to
minutes: the same Fuller solve took 0.36 s and 0.73 s a few seconds apart,
with no steal time and with process CPU time equal to wall time.  A raw pass
time therefore measures the host as much as the program.

``SpeedProbe`` times a fixed reference kernel every ``PERIOD_S`` seconds of
a pass, from a ``SIGALRM`` handler in the benchmark's process.  The kernel is
a short Python loop over small numpy operations, the same mix as the
per-interval loops of the solvers, so it slows down with them.  Each stretch
of program time between two samples is divided by the mean of the two kernel
times that bracket it and multiplied by ``REFERENCE_S``, the kernel's time
at the host's quiet speed.  The sum over a pass estimates the time that pass
would take at that speed.  The kernel's own time is left out of both the raw and
the rescaled pass time.  ``reference_ratio`` rescales the set-up the same
way from kernel times taken right after it.

Over ten runs of each workload the rescaled median pass times spread three
to nine times less than the raw ones (``README.md``).
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.25
# About the back-to-back time of ``kernel()`` (4.1-4.4 ms) when the 2-vCPU
# host of the reference figures in README.md was quiet.  A constant:
# changing it rescales every ``setup_s`` and ``solve_s`` reading.
REFERENCE_S = 0.0045

_A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_B = np.array([0.0, 1.0, 0.0])


def kernel():
    """A fixed amount of interpreter and small-array numpy work."""
    x = np.zeros(3)
    for _ in range(600):
        k1 = _A @ x + _B
        k2 = _A @ (x + 0.005 * k1) + _B
        x = np.clip(x + 0.005 * (k1 + k2), -5.0, 5.0)
    return x


def reference_ratio(repeats=5):
    """``REFERENCE_S`` over the median kernel time now, to rescale a short stretch."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    times.sort()
    return REFERENCE_S / times[len(times) // 2]


class SpeedProbe:
    """Context manager that samples ``kernel()`` while its body runs.

    After the body, ``wall_s`` is the program time of the body (kernel
    samples excluded), ``scaled_s`` the same time rescaled to the reference
    speed, and ``samples`` the kernel times in seconds.
    """

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.samples = []
        self._last_end = None
        self._busy = False
        self._previous_handler = None

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        took = end - start
        if self._last_end is not None:
            stretch = start - self._last_end
            self.wall_s += stretch
            self.scaled_s += stretch * REFERENCE_S * 2.0 / (took + self.samples[-1])
        self.samples.append(took)
        self._last_end = time.perf_counter()
        self._busy = False

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()
        return False
