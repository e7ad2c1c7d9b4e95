"""A gauge of how fast the machine runs at the moment, to scale timings by.

On a shared host the speed of one CPU can switch between two levels from one
second to the next, which moves the wall times of a run by up to a quarter.
``probe()`` times a short fixed pure-Python loop that touches none of
jetcalc.  A ``Gauge`` runs probes right before and right after the code it
times and, from a timer signal, every ``INTERVAL_S`` while it runs, so that a
job of seconds is scaled by the speed it actually ran at.  The time spent in those probes is
not counted.  The scaled time is the wall time times the mean speed the
probes saw, at the speed where a probe takes ``REFERENCE_S``.  A change to
jetcalc moves the scaled time as much as the wall time; the host's speed
moves it far less.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 0.0004         # a probe's time at the reference speed
INTERVAL_S = 0.025           # probes while the timed code runs
EDGE_PROBES = 5              # probes right before and right after it


def probe() -> float:
    """Wall time of a fixed loop of dict and integer work."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(2000):
        d[i % 97] = d.get(i % 97, 0) + i * 3
    return time.perf_counter() - t0


class Gauge:
    """``with Gauge() as g: ...`` leaves the wall time in ``g.wall`` and the
    time scaled to the reference speed in ``g.scaled``."""

    def __enter__(self):
        self.samples = [probe() for _ in range(EDGE_PROBES)]
        self.in_probes = 0.0
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.start = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.in_probes += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.samples += [probe() for _ in range(EDGE_PROBES)]
        self.wall = end - self.start - self.in_probes
        speed = sum(REFERENCE_S / s for s in self.samples) / len(self.samples)
        self.scaled = self.wall * speed
