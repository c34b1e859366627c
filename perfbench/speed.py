"""Machine-speed probe: rescales measured times to one reference speed.

On a shared host the same code runs at two or more speeds that switch
within seconds (a fixed loop took 29 ms in some seconds and 45 ms in the
others), depending on what other tenants run on the same core.  A time
summed over a run then depends on the share of fast seconds in that run,
which moved run results by 25% and more.

The probe times a small fixed interpreter kernel (tuples, a dictionary and
method calls, like the library's own code) every INTERVAL_S of wall time,
from a SIGALRM handler, so it also samples inside long library calls.  A
measured interval is cut at the kernel runs; each piece of program time is
multiplied by REF_KERNEL_S over the mean of the kernel times at its two
ends, each the median of itself and SMOOTH neighbours on each side.  The
result is the time the program would have taken had the kernel taken
REF_KERNEL_S throughout.  The kernel runs themselves are left out of it.
In four cold repetitions of z2_towers on a 2-core Xeon guest, raw wall
time ranged from 8.50 to 11.77 s and rescaled time from 10.71 to 11.40 s.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
REF_KERNEL_S = 0.5e-3  # about the slow state of a 2-core Xeon guest
KERNEL_ITERS = 700
SMOOTH = 2  # a kernel time is the median of itself and SMOOTH neighbours each side

clock = time.monotonic  # one clock across processes (CLOCK_MONOTONIC)


def kernel() -> int:
    d: dict = {}
    acc = 0
    for i in range(KERNEL_ITERS):
        t = (i, i & 7, -i)
        d[t] = d.get(t[1:], 0) + 1
        acc += len(d) & 3
    return acc


def sample() -> tuple[float, float]:
    """One kernel run: (start, duration)."""
    t0 = clock()
    kernel()
    return t0, clock() - t0


class Sampler:
    """Kernel samples taken every INTERVAL_S while started."""

    def __init__(self, earlier: list | None = None):
        self.samples: list[tuple[float, float]] = [tuple(s) for s in earlier or ()]

    def _on_alarm(self, signum, frame):
        self.samples.append(sample())

    def start(self) -> None:
        self.samples.append(sample())
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(sample())

    def scaled(self, a: float, b: float) -> float:
        """Program time in [a, b], kernel runs left out, at the reference speed.

        The samples must bracket [a, b]: the parent's sample comes before
        the worker's first interval, and stop() samples after its last.
        """
        starts = [s for s, _ in self.samples]
        durs = [d for _, d in self.samples]
        if not (starts[0] + durs[0] <= a <= b <= starts[-1]):
            raise ValueError(f"[{a}, {b}] is not inside the sampled time")
        smooth = [
            statistics.median(durs[max(0, i - SMOOTH): i + SMOOTH + 1])
            for i in range(len(durs))
        ]
        total = 0.0
        for j in range(len(durs) - 1):
            # the program ran between the end of kernel run j and the start of run j + 1
            lo = max(a, starts[j] + durs[j])
            hi = min(b, starts[j + 1])
            if hi > lo:
                total += (hi - lo) * REF_KERNEL_S * 2.0 / (smooth[j] + smooth[j + 1])
        return total
