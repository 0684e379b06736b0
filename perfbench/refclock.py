"""Host time in reference seconds.

The development host is a 2-core VM shared with other tenants.  Its
CPU speed moves by up to ~40 % within a minute (a fixed Python loop
timed back to back switched between ~165 and ~250 ms per pass), and a
busy neighbour on the other core slows this one down.  Medians over
many units do not remove that drift: over five 20-second runs,
``txn_write`` throughput ranged from 550 to 830 ops/s.

So every host-time figure is reported in *reference seconds*: each
timed interval is cut into slices of about a tenth of a second, a
short fixed Python loop (:func:`ref_loop`) is timed between slices,
and a slice's wall time is scaled by :data:`REF_NOMINAL_S` over the
loop's time around it.  The loop and the simulator are both
bytecode-bound Python, so they slow down together: on the same host
this cut the spread of ``txn_write`` throughput between runs from
±25 % to ±4 %.  A change that makes the program slower still shows in
full; a machine that is slower for a while does not.

The loop is pure standard library and never calls the program, so a
change to the program cannot change the yardstick.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

T = TypeVar("T")

#: What one :func:`ref_loop` pass takes on the reference machine state
#: (the median on the 2-core development VM), in seconds.
REF_NOMINAL_S = 0.009

#: Passes per calibration; the fastest counts, so an interrupt inside
#: one pass does not read as a slow machine.
PASSES = 2


def ref_loop() -> float:
    """The yardstick: a fixed loop of dict updates and lookups, the
    interpreter work the simulator does most.  Returns its wall time."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(50_000):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0) % 13
    return time.perf_counter() - start


def calibrate() -> float:
    """The yardstick's time now, in seconds."""
    return min(ref_loop() for _ in range(PASSES))


class RefClock:
    """Accumulates timed slices in wall and in reference seconds.

    Each :meth:`time` call is one slice: the yardstick is timed after
    it, and the slice is scaled by the mean of the yardstick's times
    before and after it."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.ref_s = 0.0
        self._last = calibrate()
        self._start = 0.0

    def time(self, fn: Callable[..., T], *args) -> T:
        self._start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - self._start
        now = calibrate()
        self.wall_s += wall
        self.ref_s += wall * REF_NOMINAL_S / ((self._last + now) / 2.0)
        self._last = now
        return result

    def now(self) -> float:
        """Reference seconds spent inside slices so far, the current
        slice scaled by the yardstick timed just before it.  Call it
        from inside a slice to time a stretch that may span several
        slices, without counting the calibrations between them."""
        elapsed = time.perf_counter() - self._start
        return self.ref_s + elapsed * REF_NOMINAL_S / self._last

    @property
    def factor(self) -> float:
        """Wall over reference time: how much slower than the reference
        state the machine ran (1.0 before anything was timed)."""
        return self.wall_s / self.ref_s if self.ref_s else 1.0
