"""Reference seconds: time corrected for the machine's speed at the time.

On a shared virtual machine the speed of a core drifts by about a third over
tens of seconds, as other tenants come and go, which is more than the
regressions the benchmark must detect.  While a run measures, a timer runs a
fixed probe every `PERIOD_S` seconds in this process.  A stretch of wall time
between two probes counts as `REFERENCE_PROBE_S / probe seconds` reference
seconds per wall second, so a reference second is the time in which the probe
would run `1 / REFERENCE_PROBE_S` times.  On a 2-core Intel Xeon VM the probe
takes 1.5-2.5 ms, so reference seconds read close to wall seconds there.

The probe is pure Python (integer and dict work, `Fraction` arithmetic, JSON
round trips), does not touch bolext, and must never change: its slowdown
across machine states tracked that of the exactness, classification, census
and corpus-mix work within a few per cent when it was chosen.
"""
from __future__ import annotations

import json
import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.25
REFERENCE_PROBE_S = 0.002

# Set-up runs in fresh interpreters, whose start-up (loading numpy's shared
# libraries, reading byte code) drifted apart from the in-process probe's
# speed.  Each set-up is instead timed against this reference start-up, run
# right after it; a reference start-up counts as REFERENCE_STARTUP_S.  Over
# 100 s on the 2-core VM, set-up medians ranged 0.16-0.29 s while their ratio
# to the reference start-up stayed within 1.65-1.83.
REFERENCE_STARTUP = "import fractions, json, numpy; print('ready', flush=True)"
REFERENCE_STARTUP_S = 0.1


def probe():
    acc, table = 0, {}
    for i in range(4000):
        acc = (acc * 31 + i) % 1000003
        table[(i % 97, i % 13)] = acc
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 1)
    json.loads(json.dumps({"rows": [[i, str(i)] for i in range(300)]}))


class RefClock:
    """Probe samples, taken by a timer inside a `with` block."""

    def __init__(self):
        self.marks = []          # (start, end) of each probe run
        self._busy = False
        self._previous = None

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        probe()
        self.marks.append((start, perf_counter()))
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def seconds(self, a, b):
        """Reference seconds in the wall interval [a, b] of this process.

        Each stretch between two probes counts at the mean speed the two
        measured; the probes' own time is left out.
        """
        total = 0.0
        for (s0, e0), (s1, e1) in zip(self.marks, self.marks[1:]):
            lo, hi = max(a, e0), min(b, s1)
            if hi > lo:
                total += (hi - lo) * 2 * REFERENCE_PROBE_S / ((e0 - s0) + (e1 - s1))
        return total

    def wall(self, a, b):
        """Wall seconds in [a, b] outside the probes."""
        return (b - a) - sum(max(0.0, min(b, e) - max(a, s)) for s, e in self.marks)

    def probe_ms(self):
        """Median probe time in ms: the machine's speed during the run."""
        times = sorted(e - s for s, e in self.marks)
        return times[len(times) // 2] * 1e3
