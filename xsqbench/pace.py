"""Machine-speed probe: turns wall time into time at an undisturbed pace.

On a virtual machine whose cores are shared with other tenants, the same
work can take anywhere from 1x to 2x its undisturbed time, and the slow
spells last from a fraction of a second to minutes.  Timing a command
alone then measures the neighbours as much as the program.

A ``Pace`` thread runs beside the commands, pinned to the same core.
Every INTERVAL_S it times one fixed piece of pure-Python work (the same
kind of work xsq does: Fraction arithmetic in dicts keyed by tuples) and
records when it ran and how long it took.  Over any interval the mean of
REF_S / sample is the share of undisturbed speed the core gave, and the
interval's length times that share is its length at undisturbed pace.
The probe is independent of xsq, so a change that makes xsq do less work
lowers the paced time in full.

The probe takes REF_S / (INTERVAL_S + REF_S), some 2.5% (5% in a slow
spell), of the core from the command beside it.
"""

from __future__ import annotations

import bisect
import os
import threading
from fractions import Fraction
from time import perf_counter

# The probe's time, in seconds, on an undisturbed core of the machine the
# reference figures come from (a 2-vCPU x86-64 virtual machine, Xeon at
# 2.0 GHz, Python 3.11).  It only sets the scale of paced seconds.
REF_S = 0.0002
INTERVAL_S = 0.008


def _work():
    acc = {}
    for i in range(1, 9):
        for j in range(1, 9):
            key = (i % 7, j % 5)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, j)
    return acc


def pin_to_one_core():
    """Pin the calling thread to the last core it may run on, so that the
    threads it starts and the processes it spawns share that core.
    Returns the core, or None where affinity cannot be set."""
    try:
        core = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {core})
        return core
    except (AttributeError, OSError):
        return None


class Pace(threading.Thread):
    def __init__(self):
        super().__init__(name="pace", daemon=True)
        self.starts = []
        self.shares = []
        self._done = threading.Event()

    def run(self):
        while not self._done.is_set():
            t = perf_counter()
            _work()
            self.starts.append(t)
            self.shares.append(REF_S / (perf_counter() - t))
            self._done.wait(INTERVAL_S)

    def stop(self):
        self._done.set()
        self.join()

    def share(self, start, end):
        """Mean share of undisturbed speed over [start, end], read after
        stop(); an interval too short to hold two samples takes the
        nearest ones."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        picked = self.shares[lo:hi]
        return sum(picked) / len(picked) if picked else 1.0

    def paced(self, start, end):
        """The length of [start, end] at undisturbed pace, in seconds."""
        return (end - start) * self.share(start, end)
