"""Host-speed probe, and the rescaling of measured times to a reference speed.

Small shared hosts run the same pure-Python job up to twice as fast at one
moment as at the next, because other work shares the physical cores; CPU
time moves with wall time, so it does not help.  A short fixed ``Fraction``
loop that does not use bihomlie (``probe``) slows down in step with the
library's own ``Fraction`` work.  So while the benchmark measures, HostClock
times the probe every INTERVAL_S of wall time from a SIGALRM handler, and
once before and after each measured interval.  The host's speed at a probe
is 1 / its time, and the work an interval did is its length times the mean
speed over it; so the interval's time, less the probes run inside it, is
multiplied by REF_PROBE_S over the harmonic mean of the probe times around
and inside it.  That is the time the interval would have taken on a host
where the probe takes REF_PROBE_S.  A probe that was descheduled reads as a
moment of low speed, which is what it was, and moves the harmonic mean
little.  On a 2-vCPU x86-64 cloud VM, over ten runs of each workload, this
cut the spread (interquartile distance over median) of ``wall_s`` from
0.15-0.19 in raw seconds to 0.02-0.04.

This module imports nothing from bihomlie, so a fresh interpreter can use it
to time ``import bihomlie`` (harness.import_seconds).
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

PROBE_TERMS = 800  # 2 to 4 ms on a 2-vCPU x86-64 cloud host
INTERVAL_S = 0.1  # so the probes take 2 to 4% of the measured time
REF_PROBE_S = 0.002  # the host speed that rescaled times refer to


def probe() -> float:
    """Seconds taken by a fixed loop of ``Fraction`` additions."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, PROBE_TERMS + 1):
        acc += Fraction(1, i % 97 + 1)
    return perf_counter() - t0


def rescale(raw_s: float, probes: list[float]) -> float:
    """``raw_s`` at the reference speed, given the probe times measured
    around and inside it."""
    return raw_s * REF_PROBE_S / statistics.harmonic_mean(probes)


@dataclass
class Measured:
    """One measured interval."""

    raw_s: float = 0.0  # wall time less the probes run inside the interval
    probe_s: float = 0.0  # harmonic mean probe time around and inside it
    seconds: float = 0.0  # raw_s rescaled to REF_PROBE_S


class HostClock:
    """Samples the probe while started, and measures intervals.

    ``samples`` holds (start, duration) of every probe, in time order.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:  # the timer fired during an explicit probe
            return
        self._busy = True
        try:
            start = perf_counter()
            self.samples.append((start, probe()))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._previous = None

    def __enter__(self) -> "HostClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @contextmanager
    def measure(self):
        """Measure the enclosed block; the Measured is filled in on exit,
        also when the block raises."""
        m = Measured()
        first = len(self.samples)
        self.sample()
        t0 = perf_counter()
        try:
            yield m
        finally:
            t1 = perf_counter()
            self.sample()
            around = self.samples[first:]
            probes = [d for _, d in around]
            m.raw_s = t1 - t0 - sum(d for s, d in around if t0 <= s < t1)
            m.probe_s = statistics.harmonic_mean(probes)
            m.seconds = rescale(m.raw_s, probes)
