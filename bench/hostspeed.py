"""Host-speed sampling, so that timings survive a shared, drifting host.

On the shared 2-core machine this benchmark was built on, the speed of
the benchmark's own thread drifts by up to 1.7x within seconds, in CPU
time as much as in wall time, so neither clock alone repeats from run to
run.  A fixed kernel (about 1 ms of interpreter arithmetic and small numpy
calls, like the analytic hot path) is timed in the benchmark's thread: in
a burst of BURST runs before every op and after the last one, and, while
a HostSpeed is entered as a context, also by a SIGALRM handler every
INTERVAL seconds inside the ops.  An op's slowdown is the median kernel
time around it over KERNEL_REF_S, and its normalized time is its own time
divided by that slowdown: seconds at the reference host speed.  The time
of a kernel run inside an op is taken out of that op.

The timer is entered only around ops whose own thread is the only busy
one (passage and stop commands).  Monte Carlo ops run worker threads on
the same CPUs and set-up probes run a child interpreter; how busy those
are could move a kernel run beside them, and with it the divisor, so
they take their slowdown from the bursts between them alone.  The traced
run does the same, so that no kernel runs inside a span.
"""

from __future__ import annotations

import cmath
import signal
import statistics
from time import perf_counter, thread_time

import numpy as np

INTERVAL = 0.05
BURST = 5               # kernel runs in a row between ops
KERNEL_REF_S = 1.0e-3   # kernel seconds on the reference machine when quiet
WINDOW = 0.3            # seconds around an op whose samples set its slowdown

_MU = np.array([1.0, 3.0])
_R = np.array([0.4, 0.6])


def kernel() -> float:
    """CPU seconds of one fixed unit of interpreter and small-numpy work.

    Thread CPU time leaves out waits for the interpreter lock, which MC
    worker threads hold at random; the host's drift shows in CPU time.
    """
    start = thread_time()
    acc, u = 0j, 0.9 + 0j
    for _ in range(150):
        acc += complex(np.sum(_R / (_MU - 0.5 * u))) * cmath.exp(-0.1 * u)
    total = 0
    for i in range(3000):
        total += i * i
    return thread_time() - start


class HostSpeed:
    """Kernel samples; entered as a context it also samples on a timer."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start time, kernel seconds)
        self._previous = None

    def sample(self, n: int = BURST) -> None:
        for _ in range(n):
            self.samples.append((perf_counter(), kernel()))

    def _on_alarm(self, signum, frame) -> None:
        self.sample(1)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def stolen(self, start: float, end: float) -> float:
        """Kernel seconds spent inside [start, end]."""
        return sum(k for t, k in self.samples if start <= t < end)

    def slowdown(self, start: float, end: float) -> float:
        """Median kernel time near [start, end] over the reference time."""
        near = [k for t, k in self.samples if start - WINDOW <= t <= end + WINDOW]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return statistics.median(near) / KERNEL_REF_S
