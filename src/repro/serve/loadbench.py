"""The open-loop load benchmark: fixed pool vs autoscaled + brownout.

The acceptance harness for traffic realism.  Every profile is replayed
twice against identical arrival schedules (and, when faulted, identical
fault plans):

* **fixed** — the static ``pool_size=2`` server every earlier PR built;
* **elastic** — the same server with the burn-rate autoscaler
  (``2 -> 8`` lanes under a spawn budget) and the brownout controller
  attached.

Two headline metrics gate the perf trajectory
(``BENCH_loadgen.json``):

``burst_goodput_retention``
    elastic goodput / fixed goodput on the burst profile with 1 %
    faults injected — how much of the offered storm the elastic server
    answers inside the latency budget, relative to the fixed pool.
    Must stay ≥ 1.5 (direction ``higher``).
``diurnal_clean_alerts`` / ``diurnal_clean_sheds``
    A clean diurnal day must fire **zero** burn-rate alerts and shed
    **zero** requests even with both controllers armed (direction
    ``lower``, baseline 0 — any creep trips the gate).

Calibration notes (why these numbers): mean virtual service is
~1.49 ms/request, so one lane sustains ~670 rps and the fixed 2-lane
pool ~1 345 rps.  The burst profile storms at ``8 x 300 = 2 400`` rps —
comfortably over the fixed pool, comfortably under the elastic
maximum's ~5 380 rps — and the diurnal peak (``1.4 x 300 = 420`` rps)
never threatens either.  The controller burns against a *tighter*
budget (:data:`CONTROL_BUDGET_NS`) than the one goodput is judged at
(:data:`BUDGET_NS`): scaling must begin while the backlog is still
recoverable, not once the SLO is already blown.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.serve.autoscale import AutoscaleConfig, control_slo
from repro.serve.loadgen import (
    ArrivalSchedule,
    LoadProfile,
    LoadgenResult,
    generate_schedule,
    profile_by_name,
    run_open_loop,
)

__all__ = [
    "BUDGET_NS",
    "CONTROL_BUDGET_NS",
    "canonical_profile",
    "canonical_schedule",
    "elastic_config",
    "make_server",
    "run_profile",
    "run_cluster_profile",
    "run_loadgen_benchmark",
]

#: The latency budget goodput is judged at (client-perceived).
BUDGET_NS = 10_000_000
#: The tighter budget the control loop burns against.
CONTROL_BUDGET_NS = 4_000_000
#: Offered base rate; deliberately below one lane's ~670 rps capacity
#: so only profile peaks (storms, flash crowds) create backlog.
BASE_RPS = 300.0
DURATION_NS = 200_000_000
#: A flat-ish, wide tenant population: per-tenant arrival runs stay
#: short, so fair-share dispatch ~= arrival order and lane backlog —
#: the thing elasticity fixes — dominates latency.
TENANTS = 60
ZIPF_ALPHA = 0.5
FIXED_POOL = 2
MAX_POOL = 8
SEED = 42
FAULT_RATE = 0.01


def canonical_profile(name: str, **overrides: Any) -> LoadProfile:
    """The benchmark's pinned parameterization of a named profile."""
    params: Dict[str, Any] = dict(
        base_rps=BASE_RPS, duration_ns=DURATION_NS
    )
    if name == "burst":
        # One 50 ms storm window at 8x, mid-run: ~2 400 rps against the
        # fixed pool's ~1 345 rps.
        params.update(
            storm_every_ns=200_000_000,
            storm_ns=50_000_000,
            storm_offset_ns=50_000_000,
            storm_multiplier=8.0,
        )
    params.update(overrides)
    return profile_by_name(name, **params)


def canonical_schedule(name: str, seed: int = SEED) -> ArrivalSchedule:
    """The pinned arrival schedule for one named profile."""
    return generate_schedule(
        canonical_profile(name), seed=seed,
        tenants=TENANTS, zipf_alpha=ZIPF_ALPHA,
    )


def elastic_config(
    pool_size: int = FIXED_POOL, max_size: int = MAX_POOL
) -> AutoscaleConfig:
    """The benchmark's autoscaler policy (2 -> 8, fast up, slow down)."""
    return AutoscaleConfig(
        min_size=pool_size,
        max_size=max_size,
        scale_up_step=3,
        up_cooldown_ns=2_000_000,
    )


def _config(fault_rate: float):
    """Faulted runs harden the runtime: crash retries, a restart budget."""
    from repro.core.runtime import FreePartConfig

    if fault_rate > 0:
        return FreePartConfig(rpc_retries=2, max_restarts_per_agent=8)
    return FreePartConfig()


def arm_elastic(
    server,
    pool_size: int = FIXED_POOL,
    max_pool: int = MAX_POOL,
    brownout_spec=None,
) -> None:
    """Attach the benchmark's autoscaler and brownout tier to a server.

    The autoscaler burns against the tight control budget (act early);
    the brownout is the last-resort tier and burns against
    ``brownout_spec`` (the controller's default SLO when None).
    """
    server.enable_autoscale(
        elastic_config(pool_size, max_pool),
        spec=control_slo(CONTROL_BUDGET_NS),
    )
    server.enable_brownout(spec=brownout_spec)


def make_server(
    kernel,
    config,
    max_retries: int,
    elastic: bool = True,
    pool_size: int = FIXED_POOL,
    max_pool: int = MAX_POOL,
    brownout_spec=None,
):
    """The open-loop server: batching on, a 512-deep admission queue,
    and with ``elastic`` the controllers of :func:`arm_elastic`.

    The load benchmark and the chaos campaign's ``loadgen`` target both
    build their servers here.
    """
    from repro.serve.server import PipelineServer

    server = PipelineServer(
        kernel=kernel,
        config=config,
        pool_size=pool_size,
        batching=True,
        queue_capacity=512,
        max_retries=max_retries,
    )
    if elastic:
        arm_elastic(server, pool_size, max_pool, brownout_spec)
    return server


def _replay_facts(
    name: str,
    seed: int,
    elastic: bool,
    fault_rate: float,
    result: LoadgenResult,
    events,
) -> Dict[str, Any]:
    """The facts every open-loop replay reports, single node or cluster."""
    from repro.obs.slo import evaluate_slos

    return {
        "profile": name,
        "seed": seed,
        "elastic": elastic,
        "fault_rate": fault_rate,
        "schedule_digest": result.schedule_digest,
        "offered": result.offered,
        "admitted": result.admitted,
        "rejected": result.rejected,
        "shed": result.shed,
        "served_ok": result.served_ok,
        "served_failed": result.served_failed,
        "goodput": round(result.goodput(BUDGET_NS), 9),
        "p99_latency_ms": round(result.p99_latency_ns() / 1e6, 4),
        "slo_alerts": sum(
            len(slo.alerts) for slo in evaluate_slos(events)
        ),
        "sheds_by_priority": dict(sorted(
            result.sheds_by_priority.items()
        )),
    }


def run_profile(
    name: str,
    seed: int = SEED,
    elastic: bool = False,
    fault_rate: float = 0.0,
    schedule: Optional[ArrivalSchedule] = None,
    pool_size: int = FIXED_POOL,
    max_pool: int = MAX_POOL,
) -> Dict[str, Any]:
    """One open-loop replay; returns the run's flattened facts."""
    from repro.sim.kernel import SimKernel

    if schedule is None:
        schedule = canonical_schedule(name, seed=seed)
    kernel = SimKernel()
    if fault_rate > 0:
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, FaultRates

        kernel.enable_tracing()
        kernel.inject_faults(
            FaultInjector(FaultPlan(seed, FaultRates.scaled(fault_rate)))
        )
    # The brownout sheds only once the *judged* budget itself burns.
    server = make_server(
        kernel, _config(fault_rate),
        max_retries=2 if fault_rate > 0 else 1,
        elastic=elastic, pool_size=pool_size, max_pool=max_pool,
        brownout_spec=control_slo(BUDGET_NS),
    )
    result: LoadgenResult = run_open_loop(server, schedule)
    stats = server.stats()
    out = _replay_facts(name, seed, elastic, fault_rate, result,
                        server.events)
    out["send_backoff_retries"] = stats["send_backoff_retries"]
    out["pool_size"] = stats["pool_size"]
    if elastic:
        out["scale_ups"] = server.autoscaler.scale_ups
        out["scale_downs"] = server.autoscaler.scale_downs
        out["burning_cells"] = server.autoscaler.monitor.burning_cells
        out["brownout_floor"] = server.brownout.floor
        out["scale_events"] = [
            event.to_dict() for event in server.autoscaler.events
        ]
    server.shutdown()
    return out


def run_cluster_profile(
    name: str,
    seed: int = SEED,
    nodes: int = 3,
    elastic: bool = True,
    fault_rate: float = 0.0,
    schedule: Optional[ArrivalSchedule] = None,
    pool_size: int = FIXED_POOL,
    max_pool: int = MAX_POOL,
) -> Dict[str, Any]:
    """One open-loop replay against a sharded multi-node cluster.

    Tenants hash across nodes (no manifest needed for synthetic
    traffic); each node runs its own autoscaler and brownout controller
    when ``elastic`` — elasticity is a per-node decision, exactly as a
    real per-machine agent pool would scale.
    """
    from repro.cluster.kernel import ClusterKernel
    from repro.cluster.serve import ClusterServer
    from repro.serve.loadgen import run_open_loop_cluster

    if schedule is None:
        schedule = canonical_schedule(name, seed=seed)
    cluster = ClusterKernel(nodes=nodes)
    if fault_rate > 0:
        from repro.faults.plan import FaultPlan, FaultRates

        cluster.enable_tracing()
        cluster.inject_faults(
            FaultPlan(seed, FaultRates.scaled(fault_rate))
        )
    server = ClusterServer(
        cluster=cluster,
        config=_config(fault_rate),
        pool_size=pool_size,
        batching=True,
        queue_capacity=512,
        max_retries=2 if fault_rate > 0 else 1,
    )
    if elastic:
        for node_server in server.servers.values():
            arm_elastic(
                node_server, pool_size, max_pool,
                brownout_spec=control_slo(BUDGET_NS),
            )
    result: LoadgenResult = run_open_loop_cluster(server, schedule)
    events = sorted(
        event
        for node_server in server.servers.values()
        for event in node_server.events
    )
    out = _replay_facts(name, seed, elastic, fault_rate, result, events)
    out["nodes"] = nodes
    out["per_node"] = {
        f"node{index}": {
            "pool_size": node_server.stats()["pool_size"],
            "requests": len(node_server.events),
            "scale_ups": (
                node_server.autoscaler.scale_ups
                if node_server.autoscaler is not None else 0
            ),
            "shed": (
                node_server.brownout.shed_requests
                if node_server.brownout is not None else 0
            ),
        }
        for index, node_server in sorted(server.servers.items())
    }
    if elastic:
        out["scale_ups"] = sum(
            node["scale_ups"] for node in out["per_node"].values()
        )
    server.shutdown()
    return out


def run_loadgen_benchmark(seed: int = SEED) -> Dict[str, Any]:
    """The full comparison: every profile, fixed vs elastic.

    Burst runs with :data:`FAULT_RATE` faults (the acceptance
    condition); diurnal runs clean (the zero-alert/zero-shed
    condition); flash runs clean as the onset-transient case.
    Everything is virtual-clock deterministic, so two invocations
    return byte-identical dictionaries.
    """
    burst_fixed = run_profile(
        "burst", seed=seed, elastic=False, fault_rate=FAULT_RATE
    )
    burst_elastic = run_profile(
        "burst", seed=seed, elastic=True, fault_rate=FAULT_RATE
    )
    diurnal_elastic = run_profile("diurnal", seed=seed, elastic=True)
    flash_fixed = run_profile("flash", seed=seed, elastic=False)
    flash_elastic = run_profile("flash", seed=seed, elastic=True)
    retention = (
        burst_elastic["goodput"] / burst_fixed["goodput"]
        if burst_fixed["goodput"] > 0 else float("inf")
    )
    flash_retention = (
        flash_elastic["goodput"] / flash_fixed["goodput"]
        if flash_fixed["goodput"] > 0 else float("inf")
    )
    return {
        "budget_ns": BUDGET_NS,
        "control_budget_ns": CONTROL_BUDGET_NS,
        "fault_rate": FAULT_RATE,
        "burst_goodput_retention": round(retention, 9),
        "flash_goodput_retention": round(flash_retention, 9),
        "runs": {
            "burst_fixed": burst_fixed,
            "burst_elastic": burst_elastic,
            "diurnal_elastic": diurnal_elastic,
            "flash_fixed": flash_fixed,
            "flash_elastic": flash_elastic,
        },
    }
