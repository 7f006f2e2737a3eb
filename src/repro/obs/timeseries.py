"""Windowed, dimensionally-labeled time-series over the virtual clock.

A :class:`TimeSeries` is a named stream of integer observations carrying
a fixed set of labels — the dimensions run reports slice by: ``tenant``,
``node``, ``agent-pool``, ``mechanism``, ``partition``.  Observations
are bucketed into fixed-width *windows* of virtual time (window ``k``
covers ``[k * window_ns, (k + 1) * window_ns)``), so a series is a
timeline, not just a total: burn-rate alerting and the run-report
"p99 over time" sections read window aggregates directly.

Every window keeps a :class:`FixedGridSketch`, a quantile sketch over a
*fixed* geometric grid of integer bucket bounds.  Unlike adaptive
sketches (t-digest, DDSketch with collapsing), the grid never depends on
the data, so p50/p99/p999 are pure functions of the observation multiset
— streamable, mergeable, and byte-identical across re-runs and machines.
The grid ratio is 1.25 (integer arithmetic, no floats), so a reported
quantile is the smallest grid bound at or above the true ceil-rank
observation: at most 25% above it, never below.

Nothing in this module reads wall time or advances the virtual clock;
recording an observation is free in virtual time.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.metrics import ceil_rank

__all__ = [
    "DEFAULT_WINDOW_NS",
    "QUANTILE_GRID",
    "FixedGridSketch",
    "TimeSeries",
    "TimeSeriesRegistry",
    "series_key",
]

#: Default window width: 1 ms of virtual time, matching the fast SLO
#: burn window so series windows and alert cells line up 1:1.
DEFAULT_WINDOW_NS = 1_000_000


def _build_grid(start: int = 1_000, limit: int = 10 ** 13) -> Tuple[int, ...]:
    """The fixed quantile grid: 1 µs upward at ratio 5/4, integers only.

    Integer arithmetic (``max(b + 1, b * 5 // 4)``) keeps the grid
    platform-independent; ~100 bounds reach past 2.7 virtual hours.
    """
    bounds: List[int] = []
    bound = start
    while bound <= limit:
        bounds.append(bound)
        bound = max(bound + 1, bound * 5 // 4)
    return tuple(bounds)


QUANTILE_GRID: Tuple[int, ...] = _build_grid()


class FixedGridSketch:
    """A streaming quantile sketch over the fixed geometric grid.

    ``counts[i]`` counts observations ``<= QUANTILE_GRID[i]`` (and above
    the previous bound); the final slot is the overflow bucket.  The
    exact ``min_value``/``max_value`` are tracked alongside, so p0/p100
    are exact and an overflow-bucket quantile degrades to the true
    maximum instead of an unbounded grid edge.
    """

    __slots__ = ("counts", "count", "total", "min_value", "max_value")

    grid: Tuple[int, ...] = QUANTILE_GRID

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min_value: Optional[int] = None
        self.max_value: Optional[int] = None

    def observe(self, value: int) -> None:
        value = int(value)
        slot = bisect.bisect_left(self.grid, value)
        self.counts[slot] = self.counts.get(slot, 0) + 1
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def merge(self, other: "FixedGridSketch") -> None:
        """Fold another sketch in (same grid by construction)."""
        for slot, count in other.counts.items():
            self.counts[slot] = self.counts.get(slot, 0) + count
        self.count += other.count
        self.total += other.total
        for bound in (other.min_value,):
            if bound is not None and (
                self.min_value is None or bound < self.min_value
            ):
                self.min_value = bound
        for bound in (other.max_value,):
            if bound is not None and (
                self.max_value is None or bound > self.max_value
            ):
                self.max_value = bound

    def quantile(self, fraction: float) -> int:
        """The grid upper bound covering the ceil-rank observation.

        ``rank = ceil(fraction * count)``; walking the grid in order,
        the first bucket whose cumulative count reaches ``rank`` yields
        the answer.  An overflow-bucket hit returns the exact tracked
        maximum; an empty sketch returns 0.
        """
        if self.count == 0:
            return 0
        rank = ceil_rank(fraction, self.count)
        cumulative = 0
        for slot in sorted(self.counts):
            cumulative += self.counts[slot]
            if cumulative >= rank:
                if slot >= len(self.grid):
                    return int(self.max_value)
                bound = self.grid[slot]
                # Never report above the true maximum (a single small
                # sample would otherwise round up to its grid bound).
                if self.max_value is not None and bound > self.max_value:
                    return int(self.max_value)
                return bound
        return int(self.max_value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min_value if self.min_value is not None else 0,
            "max": self.max_value if self.max_value is not None else 0,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }


def series_key(name: str, labels: Mapping[str, str]) -> str:
    """The canonical flat key of one labeled series.

    ``name{k=v,k2=v2}`` with label keys sorted — the snapshot dict key,
    stable across runs regardless of label insertion order.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class TimeSeries:
    """One labeled series: per-window aggregates plus a run total."""

    __slots__ = ("name", "labels", "window_ns", "windows", "overall")

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        window_ns: int = DEFAULT_WINDOW_NS,
    ) -> None:
        if window_ns < 1:
            raise ValueError(f"series {name!r} needs window_ns >= 1")
        self.name = name
        self.labels: Tuple[Tuple[str, str], ...] = tuple(
            (k, str(labels[k])) for k in sorted(labels)
        )
        self.window_ns = window_ns
        self.windows: Dict[int, FixedGridSketch] = {}
        self.overall = FixedGridSketch()

    @property
    def key(self) -> str:
        return series_key(self.name, dict(self.labels))

    def observe(self, t_ns: int, value: int) -> None:
        """Record one observation at virtual time ``t_ns``."""
        index = t_ns // self.window_ns
        window = self.windows.get(index)
        if window is None:
            window = self.windows[index] = FixedGridSketch()
        window.observe(value)
        self.overall.observe(value)

    def merge(self, other: "TimeSeries") -> None:
        """Fold another series with the same key and window width in."""
        if other.window_ns != self.window_ns:
            raise ValueError(
                f"cannot merge series {self.key!r}: window "
                f"{other.window_ns} != {self.window_ns}"
            )
        for index, sketch in other.windows.items():
            mine = self.windows.get(index)
            if mine is None:
                mine = self.windows[index] = FixedGridSketch()
            mine.merge(sketch)
        self.overall.merge(other.overall)

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic JSON view: labels, totals, ordered windows."""
        return {
            "labels": dict(self.labels),
            "window_ns": self.window_ns,
            "overall": self.overall.snapshot(),
            "windows": [
                {
                    "start_ns": index * self.window_ns,
                    **self.windows[index].snapshot(),
                }
                for index in sorted(self.windows)
            ],
        }


class TimeSeriesRegistry:
    """Named, labeled series created on first use.

    Lives on each :class:`~repro.sim.kernel.SimKernel` (``kernel.series``)
    next to the metrics registry; instrumentation points pass explicit
    virtual timestamps or let the registry read the kernel clock.
    """

    def __init__(
        self, clock: Any = None, window_ns: int = DEFAULT_WINDOW_NS
    ) -> None:
        self.clock = clock
        self.window_ns = window_ns
        self._series: Dict[str, TimeSeries] = {}

    def series(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> TimeSeries:
        labels = labels or {}
        key = series_key(name, labels)
        found = self._series.get(key)
        if found is None:
            found = self._series[key] = TimeSeries(
                name, labels, window_ns=self.window_ns
            )
        return found

    def observe(
        self,
        name: str,
        labels: Optional[Mapping[str, str]],
        value: int,
        t_ns: Optional[int] = None,
    ) -> None:
        """Record one observation (defaults to the clock's current time)."""
        if t_ns is None:
            if self.clock is None:
                raise ValueError(
                    f"series {name!r}: no clock attached, pass t_ns"
                )
            t_ns = self.clock.now_ns
        self.series(name, labels).observe(t_ns, value)

    def all_series(self) -> List[TimeSeries]:
        return [self._series[key] for key in sorted(self._series)]

    @property
    def points(self) -> int:
        """Total observations across every series."""
        return sum(series.overall.count for series in self._series.values())

    def merge(self, other: "TimeSeriesRegistry") -> None:
        """Fold another registry in (cluster reports merge node views)."""
        for series in other.all_series():
            key = series.key
            mine = self._series.get(key)
            if mine is None:
                mine = self._series[key] = TimeSeries(
                    series.name, dict(series.labels),
                    window_ns=series.window_ns,
                )
            mine.merge(series)

    @classmethod
    def merged(
        cls, registries: Iterable["TimeSeriesRegistry"]
    ) -> "TimeSeriesRegistry":
        merged = cls(clock=None)
        for registry in registries:
            merged.merge(registry)
        return merged

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic (sorted-key) view of every series."""
        return {
            key: self._series[key].snapshot()
            for key in sorted(self._series)
        }
