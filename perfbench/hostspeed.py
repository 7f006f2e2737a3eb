"""Host-speed calibration for the untraced timings.

A shared host does not run a process at one speed: when other tenants
load the machine, the same work can take 1.5-2x longer for seconds at a
time.  Host speed is sampled with a fixed pure-Python calibration loop,
run between ops and never inside one.  Every interval timed between two
samples is scaled by ``REFERENCE_NS / mean(sample before, sample after)``.
Timings therefore read as host time on a reference host on which the
loop takes exactly :data:`REFERENCE_NS`, and a slow period scales the
program and the loop alike.

The loop's working set (a 256-entry dict) stays in a core's private
caches, so its time does not depend on how much memory the program under
test touches between samples.
"""

from __future__ import annotations

import time
from typing import List, Optional

#: Iterations of the calibration loop; about 1 ms on an uncontended
#: Intel Xeon core under CPython 3.11.
CALIBRATION_ITERATIONS = 9_000
#: The loop's duration on the reference host the timings are scaled to.
REFERENCE_NS = 1_000_000
#: Longest stretch of timed work between two calibration samples.
SAMPLE_EVERY_NS = 20_000_000


def calibration_ns() -> int:
    """Host nanoseconds the fixed calibration loop takes right now."""
    started = time.perf_counter_ns()
    table = {}
    total = 0
    for index in range(CALIBRATION_ITERATIONS):
        total += index * index
        table[index & 255] = total
    return time.perf_counter_ns() - started


class HostSpeed:
    """Scales host intervals between calibration samples to reference speed.

    :meth:`start` opens the first interval, :meth:`mark` closes it once
    :data:`SAMPLE_EVERY_NS` of work has passed (sampling and opening the
    next), and :meth:`stop` closes the last one.  Each interval's ops are
    scaled with it.
    """

    def __init__(self) -> None:
        self.samples: List[int] = []
        self.scaled_ns = 0
        self._opened: Optional[int] = None
        self._pending: List[int] = []
        self._scaled_ops: List[int] = []

    def start(self) -> None:
        self.samples.append(calibration_ns())
        self._opened = time.perf_counter_ns()

    def op(self, raw_ns: int) -> None:
        """Record one op's raw host time in the open interval."""
        self._pending.append(raw_ns)

    def mark(self) -> None:
        """Close the interval if it is long enough (call between ops)."""
        if time.perf_counter_ns() - self._opened >= SAMPLE_EVERY_NS:
            self._close()
            self._opened = time.perf_counter_ns()

    def stop(self) -> List[int]:
        """Close the last interval; the scaled op times, in order."""
        self._close()
        self._opened = None
        return self._scaled_ops

    def _close(self) -> None:
        elapsed = time.perf_counter_ns() - self._opened
        before = self.samples[-1]
        self.samples.append(calibration_ns())
        after = self.samples[-1]
        self.scaled_ns += scaled(elapsed, before, after)
        self._scaled_ops.extend(
            scaled(ns, before, after) for ns in self._pending
        )
        self._pending = []


def scaled(raw_ns: int, before: int, after: int) -> int:
    """One interval timed between samples ``before`` and ``after``."""
    return round(raw_ns * 2 * REFERENCE_NS / (before + after))
