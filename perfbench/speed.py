"""CPU-speed probe for shared, noisy machines.

On a shared virtual machine the CPU a single-threaded benchmark gets can
swing between speeds about 1.5x apart on a scale of seconds, as other
tenants come and go.  A timer signal runs a fixed big-integer loop every
few milliseconds, in the benchmark's own thread, and records how long it
took.  `scaled()` turns a call's wall time into the time it would have taken
at `NOMINAL_S` per loop: it removes the probe's own time inside the call and
multiplies by NOMINAL_S over the median loop time around the call.  The loop
does the same kind of work as the toolkit (Python big-integer multiply-mod),
so both slow down together.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.01         # one probe every 10 ms: ~0.5% of the CPU
NOMINAL_S = 34e-6       # the loop uncontended, 2-vCPU Intel Xeon VM
WINDOW_S = 0.05         # probes this far around a call also count for it
LOOP = 200


def _loop():
    x, p = 3, (1 << 61) - 1
    for i in range(LOOP):
        x = (x * x + i) % p
    return x


def loop_times_us(repeats: int = 20) -> list:
    """The probe loop's time now, in microseconds, `repeats` times."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _loop()
        times.append(round(1e6 * (time.perf_counter() - t0), 1))
    return times


class SpeedProbe:
    def __init__(self):
        self.starts = []        # perf_counter at each probe's start
        self.seconds = []       # its duration

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _loop()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, seconds: float) -> float:
        """Wall time of the call [start, start + seconds] at nominal speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + seconds)
        own = sum(self.seconds[lo:hi])
        a = bisect.bisect_left(self.starts, start - WINDOW_S)
        b = bisect.bisect_left(self.starts, start + seconds + WINDOW_S)
        around = self.seconds[a:b] or self.seconds[max(0, a - 5):a + 5]
        return (seconds - own) * NOMINAL_S / statistics.median(around)
