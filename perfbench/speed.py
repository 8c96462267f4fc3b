"""Machine-speed probe: rescales measured times to a fixed reference speed.

The machine the benchmark was written on is a shared virtual machine whose
speed for the same pure-Python loop drifts by 30% and more over seconds and
minutes, and process CPU time drifts with it.  So the benchmark samples the
speed while it measures.  Every INTERVAL seconds of wall time a SIGALRM
handler times a fixed reference loop; the sampled time is taken out of the
measured interval, and the rest is rescaled to the speed at which the loop
takes REFERENCE_S seconds:

    normalised = (wall - probe time) * mean(REFERENCE_S / probe)

Samples are evenly spaced in wall time, so the mean of the speed ratios is
the time-weighted mean speed over the interval.  A change that makes the
program do less work lowers the normalised time; a machine that is merely
slower for a while does not raise it.

Run as a script, it prints the reference loop's median time on this machine.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time

INTERVAL = 0.1
# Samples taken back to back when the probe starts and when it stops.
EDGE_SAMPLES = 3
# Median time of reference() on the machine the baseline was recorded on
# (Intel Xeon, 2 vCPUs, CPython 3.11.7): normalised times read close to
# that machine's seconds.
REFERENCE_S = 0.0030


def reference():
    """A fixed amount of interpreter work: integer arithmetic, tuple keys,
    dict updates and function calls, as the library's inner loops do."""
    table = {}
    acc = 0
    for i in range(6000):
        key = (i % 37, i % 11)
        acc = (acc * 31 + i) % 1000003
        table[key] = table.get(key, 0) + _step(acc, i)
    return acc, len(table)


def _step(a, b):
    return (a ^ b) & 255


def reference_sample(samples):
    """Time one run of the reference loop and append it to `samples`."""
    t0 = time.perf_counter()
    reference()
    samples.append(time.perf_counter() - t0)


class SpeedProbe:
    """Samples the reference loop every INTERVAL seconds while active.

    with SpeedProbe() as probe:
        work()
    probe.normalise(wall)   # wall time of work(), rescaled
    """

    def __init__(self):
        self.samples = []

    def _sample(self, _signum, _frame):
        reference_sample(self.samples)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # A few samples at each end, so that a short interval has enough.
        for _ in range(EDGE_SAMPLES - 1):
            reference_sample(self.samples)
        self._sample(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            reference_sample(self.samples)
        return False

    def probe_s(self):
        """Wall time spent in the samples."""
        return sum(self.samples)

    def speed(self):
        """Mean speed over the interval, as a multiple of the reference speed."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples)

    def normalise(self, wall):
        """`wall` (which included the samples) without them, at reference speed."""
        return (wall - self.probe_s()) * self.speed()


if __name__ == "__main__":
    times = []
    for _ in range(int(sys.argv[1]) if len(sys.argv) > 1 else 200):
        reference_sample(times)
    print("reference loop: median %.6f s, min %.6f s" % (statistics.median(times), min(times)))
