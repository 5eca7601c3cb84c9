"""How fast the host runs, measured by a fixed reference computation.

On a shared host the speed of a fixed Python loop moves by a factor of up
to two and a half between periods of seconds to minutes, and the engine's
operations slow down with it.  A run therefore times this probe about
twice a second, between operations and never inside one, and scales each
measured time by ``REFERENCE_S`` over the mean of the probes just before
and just after it: the figures read as they would at the probe's
reference speed.  Scaling each operation by the probes around it, rather
than a whole run by one figure, follows speed changes inside a run; on
the reference host it cut the round-to-round spread of throughput from
about 0.2 to 0.07 (README).
"""

from __future__ import annotations

import bisect
import statistics

from repro.metrics.timing import clock

#: The probe's time on the reference host (2 shared CPUs, Python 3.11)
#: in an ordinary period; see README.
REFERENCE_S = 0.010


class HostProbe:
    """Times the reference computation at most once per ``every_s``."""

    def __init__(self, every_s: float = 0.5) -> None:
        self.every_s = every_s
        #: (start, duration) of each probe, in start order.
        self.samples: list[tuple[float, float]] = []

    def measure(self) -> None:
        started = clock()
        table: dict[int, int] = {}
        total = 0
        for i in range(50_000):
            table[i & 1023] = total
            total += (i * i) % 7
        self.samples.append((started, clock() - started))

    def maybe(self) -> None:
        """Measure when the last probe is ``every_s`` old."""
        if not self.samples or clock() - self.samples[-1][0] >= self.every_s:
            self.measure()

    def median_s(self) -> float:
        return statistics.median(d for _, d in self.samples)

    def scale(self, start: float, elapsed: float) -> float:
        """``elapsed``, measured from ``start``, at reference speed."""
        i = bisect.bisect_right(self.samples, (start, float("inf")))
        before = self.samples[max(0, i - 1)][1]
        after = self.samples[min(len(self.samples) - 1, i)][1]
        return elapsed * REFERENCE_S / ((before + after) / 2)
