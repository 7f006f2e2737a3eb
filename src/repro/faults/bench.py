"""Availability under injected faults: goodput and recovery latency.

Sweeps the multi-tenant serving workload over a set of fault rates.
At each rate the sweep runs N seeded schedules (same derivation as the
chaos campaign) and reports:

``goodput``
    Fraction of submitted requests answered OK across all schedules —
    the availability the hardened recovery path actually delivers.
``p50/p99 recovery latency``
    Extra virtual time a faulted schedule spent relative to the
    fault-free baseline (backoff sleeps, restarts, retransmissions) —
    the latency cost of recovering instead of failing.

Every number derives from the virtual clock and seeded RNG draws, so
the whole report — including its digest — is byte-identical across
reruns with the same arguments.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence

from repro.faults.campaign import (
    ChaosSettings,
    check_invariants,
    faulted_runs,
    run_target,
)

#: Fault rates of the standard availability sweep (fault-free, 1%, 5%).
DEFAULT_FAULT_RATES = (0.0, 0.01, 0.05)

#: The serving workload submits this many requests per run per tenant
#: pair (2 tenants x items requests each).
TENANTS = 2


def _point(rate: float, settings: ChaosSettings, baseline) -> Dict[str, Any]:
    """Run every schedule at one fault rate and aggregate the sweep row."""
    from repro.serve.metrics import percentile

    per_run = TENANTS * settings.items
    ok_requests = 0
    faults = 0
    restarts = 0
    retries = 0
    recovery_ns: List[int] = []
    invariants_held = True
    for _, _, outcome in faulted_runs(settings):
        ok_requests += per_run - outcome.losses_accounted
        faults += len(outcome.fault_ids)
        restarts += outcome.restarts
        retries += outcome.retries
        recovery_ns.append(max(0, outcome.virtual_ns - baseline.virtual_ns))
        if not all(check_invariants(baseline, outcome).values()):
            invariants_held = False
    recovery_ns.sort()
    total = per_run * settings.campaign
    return {
        "fault_rate": rate,
        "schedules": settings.campaign,
        "total_requests": total,
        "ok_requests": ok_requests,
        "goodput": ok_requests / total,
        "faults_injected": faults,
        "restarts": restarts,
        "retries": retries,
        "p50_recovery_ns": percentile(recovery_ns, 0.50),
        "p99_recovery_ns": percentile(recovery_ns, 0.99),
        "invariants_held": invariants_held,
    }


def availability_report(
    seed: int = 0,
    schedules: int = 8,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    items: int = 2,
    image_size: int = 16,
) -> Dict[str, Any]:
    """Goodput + recovery-latency sweep over ``fault_rates``.

    Returns a JSON-ready dict with one point per rate and a sha256
    ``digest`` over everything else — byte-identical for a fixed
    argument tuple.
    """
    def settings_for(rate: float) -> ChaosSettings:
        return ChaosSettings(
            target="serve-bench", seed=seed, campaign=schedules,
            fault_rate=rate, items=items, image_size=image_size,
        )

    # One fault-free baseline serves every rate (the plan is the only
    # thing a rate changes).
    baseline = run_target("serve-bench", settings_for(0.0), plan=None)
    points = [
        _point(rate, settings_for(rate), baseline) for rate in fault_rates
    ]
    report: Dict[str, Any] = {
        "target": "serve-bench",
        "seed": seed,
        "schedules": schedules,
        "items": items,
        "image_size": image_size,
        "points": points,
    }
    payload = json.dumps(report, sort_keys=True, separators=(",", ":"))
    report["digest"] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return report
