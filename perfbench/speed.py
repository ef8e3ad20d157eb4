"""The machine's speed, sampled while ops run, without threads.

On a shared machine the speed of one core swings between about 1x and 2x
within seconds, as other tenants come and go, so an op's wall time says as
much about the neighbours as about ucrsynth. ``SpeedProbe`` times a fixed
piece of work from a SIGALRM handler every ``INTERVAL_S`` seconds: an
arithmetic loop of ``LOOPS`` steps, then making and dropping ``CELLS`` small
slotted objects, the kind of work ucrsynth spends its time on. The mix was
chosen by how each workload's op time followed the probe's speed as a
2-vCPU Xeon virtual machine sped up and slowed down: op time went as speed
to the power -1.07 to -1.5 for the loop alone, -0.73 to -1.0 for the
objects alone, and -0.92 to -1.24 for the mix, where -1 is exact tracking.

``work(begin, end)`` turns a wall-time interval into probe units: how many
probes the machine could have run in it, at the speeds sampled in and
around it, minus the probes that did run inside it. The probe calls nothing
in ucrsynth, so no change to the package can move it.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left
from time import perf_counter

INTERVAL_S = 0.02
LOOPS = 800
CELLS = 120
WINDOW_S = 0.25  # speed samples this far outside an interval still count for it


class _Cell:
    __slots__ = ("a", "b", "c", "d", "e", "f")

    def __init__(self, a, b):
        self.a = self.c = self.e = a
        self.b = self.d = self.f = b


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds) of each probe
        self._previous = None
        self._starts: list[float] = []

    def _tick(self, signum, frame) -> None:
        # With collection off, the cells leave the collector's counts as
        # they found them, so the probe does not shift the package's GC.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        x = 0
        for i in range(LOOPS):
            x += i
        cells = [_Cell(i, 0.5) for i in range(CELLS)]
        del cells
        took = perf_counter() - start
        if enabled:
            gc.enable()
        self.samples.append((start, took))

    def __enter__(self) -> SpeedProbe:
        self._tick(None, None)  # so that even the shortest run has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.sort()
        self._starts = [t for t, _ in self.samples]

    def work(self, begin: float, end: float) -> float:
        """Probe units of work done in [begin, end), probes excluded.

        Call after the probe has stopped.
        """
        starts = self._starts
        lo = bisect_left(starts, begin - WINDOW_S)
        hi = bisect_left(starts, end + WINDOW_S)
        near = self.samples[lo:hi] or self.samples
        speed = sum(1.0 / took for _, took in near) / len(near)
        inside = bisect_left(starts, end) - bisect_left(starts, begin)
        return (end - begin) * speed - inside
