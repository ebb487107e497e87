"""Machine-speed calibration of the benchmark's times.

On a shared virtual machine the same instructions run 20 to 50 % slower
for stretches of tens of seconds while neighbours load the host.  This was
measured on a 2-core VM: CPU time drifted exactly as wall time did, so the
process was not descheduled.  Runs that fall into different stretches
then disagree by more than any useful bound.

While a Meter runs, a SIGALRM handler runs a fixed probe every
PROBE_EVERY_S seconds, in the middle of whatever copgame is doing.  The
probe is a short pure-Python loop of tuple building, dict updates and
small sorts.  It runs with the garbage collector off, so copgame's heap
cannot slow it, and it belongs to the benchmark, so no change to copgame
can move it.  The time the probes take is counted in stolen_ns, for the
caller to subtract from what it timed.  A time measured while the probe
medians at p seconds is reported as time * PROBE_NOMINAL_S / p: seconds
on a machine where the probe takes PROBE_NOMINAL_S.  Sampling during the
work matters: probes taken only between long calls tracked the drift
badly.  Sampled during the work, they cut the spread of 10-second windows
from 7-21 % to 3-8 % on verify, replay and cli.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

PROBE_NOMINAL_S = 0.005
PROBE_ITERATIONS = 6_000
PROBE_EVERY_S = 0.25
MIN_SAMPLES = 3


def probe() -> float:
    """Seconds one probe takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts = {}
        for i in range(PROBE_ITERATIONS):
            t = (i % 97, i % 89, i % 83)
            counts[t] = counts.get(t, 0) + len(sorted(t))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Probe samples taken from a timer signal while the meter runs."""

    def __init__(self):
        self.samples = []
        self.stolen_ns = 0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.samples.append(probe())
        self.stolen_ns += time.perf_counter_ns() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor_since(self, first: int) -> float:
        """Calibration factor for work done since sample number `first`.

        Work shorter than MIN_SAMPLES ticks gets probes taken right after
        it to make up the number.
        """
        while len(self.samples) - first < MIN_SAMPLES:
            t0 = time.perf_counter_ns()
            self.samples.append(probe())
            self.stolen_ns += time.perf_counter_ns() - t0
        return PROBE_NOMINAL_S / statistics.median(self.samples[first:])
