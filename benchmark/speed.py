"""Speed probe: takes the machine's drifting CPU speed out of timings.

On a shared machine the speed of one CPU drifts by a fifth to a half over
a few seconds, as other tenants load the host, and two CPUs drift
independently.  Process CPU time drifts the same way, so it is no cure.
This module samples the speed the timed process itself runs at: a timer
signal interrupts it every INTERVAL_S, and the handler times a fixed piece
of Python work (`_probe`: exact fractions, lists, tuples and a dict, the
kind of work kahlerdiff does).  It runs the probe twice and times the
second run, so that the probe finds its data in cache whatever the timed
code left there.  A stretch of wall time is then rescaled to the
reference speed, at which one probe takes REFERENCE_S:

    reference seconds = (wall seconds - probe time) * mean(REFERENCE_S / probe)

The probe time inside the stretch is taken out, so the probe adds nothing
but a little cache pressure.  REFERENCE_S is a fixed unit, chosen so that
reference seconds read within about a fifth of wall seconds in the fast
spells of a 2-vCPU x86-64 VM running Python 3.11.  On that VM, eight passes over the
same 156 battery schemes took 6.8-10.2 s of wall time, and their reference
times varied by 0.7% (coefficient of variation).
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left
from fractions import Fraction

INTERVAL_S = 0.02
REFERENCE_S = 150e-6
PAD_S = 0.1  # a stretch shorter than this borrows probes from either side

_THREE_FIFTHS = Fraction(3, 5)


def _probe() -> dict:
    table = {}
    row = [Fraction(i, 7) for i in range(8)]
    for k in range(4):
        row = [a * _THREE_FIFTHS - b for a, b in zip(row, row[1:] + row[:1])]
        table[tuple((k, i) for i in range(6))] = row
    return table


def _warm_probe() -> float:
    """Run the probe twice; return the duration of the second run."""
    _probe()
    t = time.perf_counter()
    _probe()
    return time.perf_counter() - t


class SpeedProbe:
    """Samples the process's speed on a timer while started."""

    def __init__(self):
        self.run = lambda fn: fn()  # how a probe is run; a tracer wraps it
        self.stamps = array("d")  # perf_counter() at the start of each tick
        self.costs = array("d")  # duration of the timed probe in seconds
        self.spent = array("d")  # duration of the whole tick

    def start(self) -> None:
        _probe()  # first run pays for lazy set-up; not recorded
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def burst(self, count: int) -> None:
        """Take `count` probes now, back to back."""
        for _ in range(count):
            self._tick()

    def _tick(self, *_signal) -> None:
        t = time.perf_counter()
        cost = self.run(_warm_probe)
        self.spent.append(time.perf_counter() - t)
        self.costs.append(cost)
        self.stamps.append(t)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the work done between two perf_counter()
        readings, with the probe time inside them taken out."""
        busy = self.raw(start, end)
        near = slice(bisect_left(self.stamps, start - PAD_S),
                     bisect_left(self.stamps, end + PAD_S))
        costs = self.costs[near]
        if not costs:
            # no probe within reach: take the nearest one
            k = min(bisect_left(self.stamps, end), len(self.costs) - 1)
            costs = self.costs[k:k + 1]
        return busy * sum(REFERENCE_S / c for c in costs) / len(costs)

    def raw(self, start: float, end: float) -> float:
        """Wall seconds between two readings, probe time taken out."""
        lo, hi = bisect_left(self.stamps, start), bisect_left(self.stamps, end)
        return end - start - sum(self.spent[lo:hi])
