"""Instance times scaled to a host of fixed speed.

The benchmark runs on shared hosts whose speed drifts by a quarter or more
for seconds to tens of seconds at a time (other tenants' load on the same
physical cores), which is as long as an instance or a whole run.  So the
clock keeps timing a fixed stdlib loop of the kind of work eqcartan's scalar
code does (Fraction and dict arithmetic), with the collector off, keeping the
fastest of three tries: between instances (at most every ``SAMPLE_EVERY``
seconds) and, from a timer signal, every ``SAMPLE_DURING`` seconds inside
one.  An instance's time is its wall time, less the samples taken inside it,
times ``REFERENCE_S`` over the mean of the samples just before, during and
just after it: its wall time on a host where the loop takes ``REFERENCE_S``.
The harness keeps itself and its child processes on one core, so the loop
measures the core the work runs on.

On the reference host this took the spread of the median of six runs of one
CP^5 instance (distance between quartiles over the median) from 0.12 in wall
time to 0.03; over 24-second windows, the spread of an instance's median
went from 0.12-0.47 in wall time to 0.02-0.05, for in-process instances and
eqcartan processes alike.

The loop uses nothing from eqcartan, so no change to the program moves it;
a program that gets slower gets slower by the same share in scaled time.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

# The loop's typical time on the reference host (a 2-vCPU Xeon KVM guest,
# Python 3.11.7) between instances of the workloads.
REFERENCE_S = 7.2e-4
SAMPLE_EVERY = 0.1
SAMPLE_DURING = 0.05
TRIES = 3
WARMUP_S = 0.01


def _loop():
    total = Fraction(0)
    buckets = {}
    for i in range(1, 300):
        total += Fraction(i % 7 - 3, i)
        buckets[i % 50] = buckets.get(i % 50, 0) + i
    return total


def loop_s(warmup_s=WARMUP_S):
    """The fastest of ``TRIES`` timings of the loop, collector off, after
    ``warmup_s`` of untimed loops: a core that sat idle (while a child
    process waited on a pipe) runs slowly for a few milliseconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        end = time.perf_counter() + warmup_s
        while time.perf_counter() < end:
            _loop()
        best = float("inf")
        for _ in range(TRIES):
            t0 = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class Timing:
    """What ``Clock.timed`` measured: ``wall``, the seconds the body ran
    less the samples taken inside it, ``elapsed``, the seconds including
    them, and ``scaled``, ``wall`` in seconds of the reference host."""

    wall = elapsed = scaled = 0.0


class Clock:
    """Samples the host's speed and scales wall times by it.

    Owns SIGALRM for its lifetime; the signal is armed only inside
    ``timed``."""

    def __init__(self):
        self.samples = []
        self._due = 0.0
        self._during = None
        self._stolen = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def mark(self):
        """The latest speed sample, taking a new one if due."""
        if time.perf_counter() >= self._due or not self.samples:
            self.samples.append(loop_s())
            self._due = time.perf_counter() + SAMPLE_EVERY
        return self.samples[-1]

    def _on_alarm(self, signum, frame):
        if self._during is None:
            return  # a signal that arrived as the timer was disarmed
        t0 = time.perf_counter()
        self._during.append(loop_s(warmup_s=0.0))  # the core is busy
        self._stolen += time.perf_counter() - t0

    @contextlib.contextmanager
    def timed(self):
        """Time the body; the yielded ``Timing`` is filled in when it
        exits, by an exception too."""
        timing = Timing()
        before = self.mark()
        self._during, self._stolen = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_DURING, SAMPLE_DURING)
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            timing.elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            during, self._during = self._during, None
            self.samples.extend(during)
            loop = statistics.fmean([before, *during, self.mark()])
            timing.wall = timing.elapsed - self._stolen
            timing.scaled = timing.wall * REFERENCE_S / loop

    def speed(self):
        """The host's median speed over the run, as a share of the
        reference host's."""
        xs = sorted(self.samples)
        return REFERENCE_S / xs[len(xs) // 2] if xs else 1.0
