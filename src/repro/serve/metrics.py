"""Serving metrics: requests/sec and latency percentiles, all virtual.

The simulation executes requests one at a time on a global virtual
clock, so each request yields an exact *service time*.  Concurrency is
then modelled deterministically: the timeline assigns completed requests
to ``lanes`` parallel servers (one lane per pooled agent set) with an
earliest-free-lane discipline — the classic multi-server queue, replayed
rather than sampled, so p50/p99 and throughput are bit-identical across
machines.

Latency of a request = (queue wait until a lane frees) + (service time).
Throughput = completed requests / makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry, ceil_rank
from repro.sim.clock import NS_PER_SEC


@dataclass
class RequestTiming:
    """One completed request's point on the serving timeline."""

    request_id: int
    tenant_id: str
    arrival_ns: int
    start_ns: int
    finish_ns: int
    service_ns: int

    @property
    def latency_ns(self) -> int:
        return self.finish_ns - self.arrival_ns

    @property
    def wait_ns(self) -> int:
        return self.start_ns - self.arrival_ns


def percentile(sorted_values: List[int], fraction: float) -> int:
    """Nearest-rank percentile over a pre-sorted sample.

    Uses the ceil-rank definition (:func:`repro.obs.metrics.ceil_rank`,
    clamped to ``n``): the smallest value with at least ``fraction`` of
    the sample at or below it.  (The previous ``round(fraction * (n - 1))`` interpolation-index
    variant under-reported upper percentiles — p99 of a 10-element sample
    picked the 9th value, not the maximum.)
    """
    if not sorted_values:
        return 0
    n = len(sorted_values)
    return sorted_values[min(n, ceil_rank(fraction, n)) - 1]


class ServingTimeline:
    """Earliest-free-lane replay of measured (arrival, service) pairs."""

    def __init__(
        self, lanes: int = 1, registry: Optional[MetricsRegistry] = None
    ) -> None:
        if lanes < 1:
            raise ValueError(f"timeline needs >= 1 lane, got {lanes}")
        self.lanes = lanes
        self._lane_free_ns = [0] * lanes
        self.timings: List[RequestTiming] = []
        #: Optional obs registry fed one counter + two histograms per
        #: observed request (serve.requests, serve.latency_ns,
        #: serve.service_ns).
        self.registry = registry

    def observe(
        self,
        request_id: int,
        tenant_id: str,
        arrival_ns: int,
        service_ns: int,
    ) -> RequestTiming:
        """Place one completed request on the earliest-free lane."""
        lane = min(range(self.lanes), key=lambda i: self._lane_free_ns[i])
        start_ns = max(arrival_ns, self._lane_free_ns[lane])
        finish_ns = start_ns + service_ns
        self._lane_free_ns[lane] = finish_ns
        timing = RequestTiming(
            request_id=request_id,
            tenant_id=tenant_id,
            arrival_ns=arrival_ns,
            start_ns=start_ns,
            finish_ns=finish_ns,
            service_ns=service_ns,
        )
        self.timings.append(timing)
        if self.registry is not None:
            self.registry.counter("serve.requests").inc()
            self.registry.histogram("serve.latency_ns").observe(
                timing.latency_ns
            )
            self.registry.histogram("serve.service_ns").observe(service_ns)
        return timing

    def set_lanes(self, lanes: int, at_ns: int = 0) -> None:
        """Resize the replay to ``lanes`` parallel servers mid-stream.

        The autoscaler's scale events map onto the timeline here: growing
        adds lanes that become free at ``at_ns`` (the virtual time the new
        agents finished spawning — capacity is not free), while shrinking
        retires the *idlest* lanes (smallest free time) so work already
        accepted on busy lanes keeps its backlog.  Deterministic either
        way.
        """
        if lanes < 1:
            raise ValueError(f"timeline needs >= 1 lane, got {lanes}")
        if lanes > self.lanes:
            self._lane_free_ns.extend([at_ns] * (lanes - self.lanes))
        elif lanes < self.lanes:
            self._lane_free_ns.sort()
            self._lane_free_ns = self._lane_free_ns[-lanes:]
        self.lanes = lanes

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def makespan_ns(self) -> int:
        if not self.timings:
            return 0
        first_arrival = min(t.arrival_ns for t in self.timings)
        last_finish = max(t.finish_ns for t in self.timings)
        return last_finish - first_arrival

    def requests_per_second(self) -> float:
        makespan = self.makespan_ns
        if makespan <= 0:
            return 0.0
        return len(self.timings) * NS_PER_SEC / makespan

    def latency_percentile_ns(self, fraction: float) -> int:
        return percentile(
            sorted(t.latency_ns for t in self.timings), fraction
        )

    def mean_service_ns(self) -> float:
        if not self.timings:
            return 0.0
        return sum(t.service_ns for t in self.timings) / len(self.timings)

    def per_tenant_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for timing in self.timings:
            counts[timing.tenant_id] = counts.get(timing.tenant_id, 0) + 1
        return counts

    def summary(self) -> Dict[str, Any]:
        """The JSON payload benchmark reports are built from."""
        return {
            "lanes": self.lanes,
            "requests": len(self.timings),
            "makespan_seconds": self.makespan_ns / NS_PER_SEC,
            "requests_per_second": self.requests_per_second(),
            "p50_latency_ms": self.latency_percentile_ns(0.50) / 1e6,
            "p99_latency_ms": self.latency_percentile_ns(0.99) / 1e6,
            "mean_service_ms": self.mean_service_ns() / 1e6,
            "per_tenant_requests": self.per_tenant_counts(),
        }
