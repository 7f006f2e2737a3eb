"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` lives on each :class:`~repro.sim.kernel.SimKernel`
(``kernel.metrics``) and aggregates what the scattered per-layer counters
used to keep privately: gateway call counts feed it through
:class:`~repro.core.gateway.GatewayStats`, the serving layer's
:class:`~repro.serve.metrics.ServingTimeline` records latency and
service-time histograms into it.

Histograms use *fixed* bucket boundaries (a geometric ladder of virtual
nanoseconds by default) rather than adaptive ones, so snapshots are
deterministic: the same run produces the same buckets on every machine.
"""

from __future__ import annotations

import bisect
import functools
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ceil_rank",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_NS_BUCKETS",
]


@functools.lru_cache(maxsize=64)
def _decimal(fraction: float) -> Fraction:
    return Fraction(str(fraction))


def ceil_rank(fraction: float, count: int) -> int:
    """The 1-based nearest rank ``ceil(fraction * count)``, at least 1.

    Every quantile in the repo goes through this one definition.  The
    fraction is read as the decimal it prints as, and the product is
    exact integer arithmetic: p7 of 100 samples is rank 7, where the
    float product ``0.07 * 100 = 7.000000000000001`` would round up to
    8.  Callers clamp ranks above ``count`` their own way.
    """
    exact = _decimal(fraction)
    return max(1, -(-exact.numerator * count // exact.denominator))


#: Geometric ladder from 1 µs to ~17 minutes of virtual time — wide
#: enough for every latency this simulation produces, fixed so snapshots
#: are bit-identical across machines.
DEFAULT_NS_BUCKETS: Tuple[int, ...] = tuple(
    1_000 * 4 ** k for k in range(15)
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can move either way (pool occupancy, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value: int) -> None:
        self.value = value

    def add(self, delta: int) -> None:
        self.value += delta


class Histogram:
    """A fixed-bucket histogram of integer observations.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; the last
    slot is the overflow bucket.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total")

    def __init__(
        self, name: str, bounds: Sequence[int] = DEFAULT_NS_BUCKETS
    ) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r} needs strictly increasing bounds"
            )
        self.name = name
        self.bounds: Tuple[int, ...] = tuple(bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0

    def observe(self, value: int) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def overflow(self) -> int:
        """Observations above the top bound (they still move ``total``,
        so a large overflow count means ``mean`` is dominated by values
        the buckets cannot localize)."""
        return self.bucket_counts[-1]

    def quantile(self, fraction: float) -> Optional[int]:
        """Bucket-upper-bound quantile: the smallest ``bounds[i]`` whose
        cumulative count covers the ceil-rank observation.

        The answer is an upper bound on the true quantile — exact only
        when every observation in the bucket sits on the bound.  Returns
        ``None`` when the sketch is empty or the rank lands in the
        overflow bucket (there is no finite bound to report; check
        :attr:`overflow` before trusting upper percentiles).
        """
        if self.count == 0:
            return None
        rank = ceil_rank(fraction, self.count)
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index >= len(self.bounds):
                    return None
                return self.bounds[index]
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "overflow": self.overflow,
        }


class MetricsRegistry:
    """Named instruments, created on first use, snapshot-able as JSON."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, bounds: Optional[Sequence[int]] = None
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, bounds if bounds is not None else DEFAULT_NS_BUCKETS
            )
        return instrument

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic (sorted-key) view of every instrument."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }
