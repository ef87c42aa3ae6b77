"""A fixed reference computation that the benchmark times while commands run.

The host this benchmark runs on is shared, and its speed moves between a
fast and a slow state, about 1.8x apart, that last from seconds to many
minutes.  The slow state slows every computation by a similar factor: over
four minutes in which the wall time of ``scatter`` and ``zeros`` moved by
1.8x, their 30 s medians over the time of a kernel like this one (all in
the first part below) spread by 0.03 and 0.06.
Dividing a command's wall time by the kernel's time, sampled before, during
and after the command, cancels most of that factor.  The kernel uses no
``mbamp`` code, so a change to the program cannot move it.

Its two parts follow the program's two kinds of solve: RK4 steps on one
2-vector in Python with small NumPy operations (as in the single-k Jost
solves), then midpoint steps on a batch of 521 k-values (as in ``ab_many``
over the scatter grid), about 45% and 55% of its time.  In three minutes
of both host states, single-k solves over this kernel read 1% apart
between the states and ``scatter`` 7% apart.  Other mixes and batch sizes
moved these figures by about as much as the slow state's effect on them
varied from one occasion to the next, so the mix stays simple.
"""

from __future__ import annotations

import signal
import time

import numpy as np

SMALL_STEPS = 100
BATCH_STEPS = 60
_M = np.array([[-0.3j, 1.0], [-1.0, 0.3j]])
_K = np.linspace(-20.0, 20.0, 521)


def kernel() -> complex:
    """RK4 steps on one 2-vector, then midpoint steps on 521 of them."""
    y = np.array([1.0 + 0.0j, 0.0j])
    h = 1e-3
    for _ in range(SMALL_STEPS):
        k1 = _M @ y
        k2 = _M @ (y + (0.5 * h) * k1)
        k3 = _M @ (y + (0.5 * h) * k2)
        k4 = _M @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    a = np.full(_K.shape, y[0])
    b = np.full(_K.shape, y[1])
    h = 1e-2
    for _ in range(BATCH_STEPS):
        am = a + (0.5 * h) * (-1j * _K * a + 2.0 * b)
        bm = b + (0.5 * h) * (-2.0 * a + 1j * _K * b)
        a = a + h * (-1j * _K * am + 2.0 * bm)
        b = b + h * (-2.0 * am + 1j * _K * bm)
    return complex(a.sum() + b.sum())


class Sampler:
    """Times the kernel every ``interval`` seconds of wall time from a timer
    signal, so that samples fall inside long commands too.

    ``samples`` holds ``(start, seconds)`` per kernel run, on the
    ``time.perf_counter`` clock.  The handler runs in the main thread between
    the program's Python bytecodes; callers subtract the time it took from a
    command's wall time (``busy``).
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._sampling = False

    def sample(self) -> None:
        self._sampling = True
        try:
            start = time.perf_counter()
            kernel()
            self.samples.append((start, time.perf_counter() - start))
        finally:
            self._sampling = False

    def _handler(self, signum, frame) -> None:
        # a tick that lands in a sample would time two kernels as one
        if not self._sampling:
            self.sample()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` spent in the kernel."""
        return sum(min(s + d, end) - max(s, start) for s, d in self.samples
                   if s < end and s + d > start)

    def speed(self, start: float, end: float) -> float:
        """Mean kernel time over the samples that start in
        ``[start - interval, end + interval]``."""
        near = [d for s, d in self.samples
                if start - self.interval <= s <= end + self.interval]
        return sum(near) / len(near)
