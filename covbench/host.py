"""Host speed, from fixed reference work timed while the benchmark runs.

A shared host runs the same code faster or slower by 10-30 % over tens
of seconds, as its neighbours' load changes.  Fixed reference work slows
with the host but not with covercalc, so dividing a latency by how much
slower than nominal the reference ran around and during it reports the
latency at the host's nominal speed.  The process and its children keep
to one CPU, so the reference runs where the timed work runs.

Two references, each like the work it stands for:
  loop    a pure-Python loop, for in-process items.  It runs between items
          and, from a SIGALRM timer restarted with each item, every
          PERIOD_S while an item runs; the time the timer takes is
          subtracted from the item's latency.
  launch  a fresh interpreter importing fixed standard-library modules,
          for interpreter launches (setup_s) and CLI children.  It runs
          before each of them.

Measured on a 2-vCPU Xeon VM (2.1 GHz, Python 3.11): the pass time of
sigma-sweep moved by +-12 % over a minute while its ratio to the loop
moved by +-2 %; twenty runs of the phi item (Z/3)^2 + Z/9 spread 0.107 as
measured and 0.049 divided by loop samples taken during it, but 0.228
divided by samples taken only just before and after; the median of nine
`import covercalc.cli` launches spread 0.27 over thirty rounds as
measured, 0.185 divided by the loop and 0.079 divided by the launch
reference.  The raw timings stay in the report line.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import subprocess
import sys
import time

# Roughly the median time of one loop_reference() and one
# launch_reference() on the host above; a host factor of 1 means that speed.
LOOP_NOMINAL_S = 4.4e-4
LAUNCH_NOMINAL_S = 0.065
# How often the timer samples the loop during an in-process item (about
# 2 % of it).
PERIOD_S = 0.025
LAUNCH_MODULES = ("argparse, json, fractions, decimal, statistics, "
                  "dataclasses, typing, enum")


def loop_reference() -> float:
    """Seconds one fixed loop of integer, bit and list work takes.

    The collector is off meanwhile, so that objects the program left
    behind do not make the loop slower.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        acc, counts = 0, [0] * 64
        for i in range(1500):
            x = (i * 2654435761) & 0xFFFFFFFF
            acc ^= x << (i & 63)
            counts[x & 63] += 1
        took = time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()
    if acc == 0 or sum(counts) != 1500:
        raise RuntimeError("reference loop computed a wrong result")
    return took


def launch_reference() -> float:
    """Seconds a fresh interpreter takes to import LAUNCH_MODULES and exit."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import " + LAUNCH_MODULES],
                   capture_output=True, timeout=60, check=True)
    return time.perf_counter() - started


class HostClock:
    """Samples of one reference in one run, when each was taken, and how
    long the timer's samples took in all.

    An interval's factor comes from the samples taken in it and `side`
    samples on each side of it."""

    def __init__(self, reference, nominal_s, side, warm_up):
        self.reference, self.nominal_s, self.side = reference, nominal_s, side
        self.times, self.samples = [], []
        self.timer_s = 0.0
        for _ in range(warm_up):
            reference()

    @classmethod
    def loop(cls):
        return cls(loop_reference, LOOP_NOMINAL_S, side=8, warm_up=50)

    @classmethod
    def launch(cls):
        return cls(launch_reference, LAUNCH_NOMINAL_S, side=2, warm_up=1)

    def sample(self, count=1):
        for _ in range(count):
            started = time.perf_counter()
            self.samples.append(self.reference())
            self.times.append(started)

    def _on_alarm(self, signum, frame):
        if self._sampling:  # a late alarm inside the last one: skip it
            return
        self._sampling = True
        started = time.perf_counter()
        self.sample()
        self.timer_s += time.perf_counter() - started
        self._sampling = False

    def start_timer(self):
        self._sampling = False
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, t0, t1) -> float:
        """How much slower than nominal the host ran over [t0, t1]: the
        median of the samples taken in it and the `side` samples on each
        side, over the nominal time."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        near = self.samples[max(0, lo - self.side):hi + self.side]
        if not near:
            raise RuntimeError("no reference sample near a timed interval")
        return statistics.median(near) / self.nominal_s

    def median_factor(self) -> float:
        return statistics.median(self.samples) / self.nominal_s
