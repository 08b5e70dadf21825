"""The host's pace: how fast this host runs Python at the moment.

The 2-vCPU Xeon host this benchmark was built on runs the same code at two
speeds that differ by up to 1.9 times and switch every few seconds, with
stretches of tens of seconds at either speed. It is not time stolen by the
hypervisor: a job's CPU time equals its wall time at both speeds. A fixed
pure-Fraction loop that uses nothing of swinghedge (`probe`) slows down with
the job, so timing it next to and inside a job tells at which pace the job
ran, and run.py reports each time at a fixed reference pace.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# One probe is this many loop iterations; a pace is its time in seconds.
PROBE_ITERATIONS = 1500
# Probes just before and just after each timed stretch.
EDGE_PROBES = 2
# Inside the stretch a shorter probe runs every TICK_S seconds; its time is
# taken out of the stretch's.
TICK_S = 0.02
TICK_ITERATIONS = 300


def probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds for a fixed pure-Fraction loop."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(iterations):
        acc += Fraction(k % 7, 6)
    return time.perf_counter() - start


class Pacer:
    """Times a call while sampling the host's pace around and inside it."""

    def __init__(self):
        self.ticks = []  # (start, seconds) of each probe run inside a stretch
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe(TICK_ITERATIONS)
        self.ticks.append((start, time.perf_counter() - start))

    def run(self, fn, inside=True):
        """(seconds, pace, outcome) of fn().

        seconds leave out the probes run inside; pace is the mean of all
        probes, each scaled to PROBE_ITERATIONS; outcome is what fn()
        returned, or the exception it raised. With inside=False (traced
        runs, whose spans must not hold probes) only the edges are probed.
        """
        edges = [probe() for _ in range(EDGE_PROBES)]
        self.ticks = []
        if inside:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            outcome = fn()
        except Exception as exc:  # the caller counts it and goes on
            outcome = exc
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        inside_s = [s for t, s in self.ticks if t < end]
        edges += [probe() for _ in range(EDGE_PROBES)]
        scale = PROBE_ITERATIONS / TICK_ITERATIONS
        pace = statistics.mean(edges + [s * scale for s in inside_s])
        return end - start - sum(inside_s), pace, outcome
