"""Seeded chaos campaigns: run a target many times under injected faults.

One campaign runs N *schedules* of one target (an evaluation app, a CVE
replay, or the multi-tenant serving workload).  Schedule ``i`` derives
its own seed from the campaign seed, builds a
:class:`~repro.faults.plan.FaultPlan`, arms it on a fresh machine, runs
the target, and checks four invariants against a fault-free baseline run
of the same target:

``output``
    Everything the faulted run wrote under ``/out`` is byte-identical to
    the baseline's file of the same path, and a run that *claims*
    success produced exactly the baseline's outputs.  Partial output is
    only acceptable on a clean failure — whole-run, or item-level losses
    the run itself accounted for (crashes survived, failed responses).
``frozen``
    No write onto a frozen (temporal read-only) page ever completed —
    fault injection must not weaken the paper's protection.
``refs``
    No tenant-namespaced ObjectRef survived the restart of the address
    space that minted it (serving target only; vacuous elsewhere).
``observed``
    Every injected fault appears as an ``obs`` trace instant (category
    ``"fault"``) carrying its fault id — chaos runs are fully auditable.

Everything — fault draws, virtual timing, outputs — is a pure function
of (target, seed, rates), so a campaign report's digest is byte-stable
across runs and machines.

This module is also where every target is built: :func:`target_kind`
resolves a name and one runner per kind builds and runs it, for chaos
(:func:`run_target`) and for ``repro trace``/``report``
(:func:`traced_run`) alike.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRates

#: Spreads schedule seeds far apart so adjacent campaigns don't overlap.
SCHEDULE_SEED_STRIDE = 1_000_003

#: Recovery knobs every chaos run enables (the hardened configuration
#: under test): crash-retries per dispatch and a per-agent restart
#: budget that restart storms can exhaust without wedging the run.
CHAOS_RPC_RETRIES = 2
CHAOS_MAX_RESTARTS = 8


@dataclass(frozen=True)
class ChaosSettings:
    """Everything that determines a campaign (and hence its digest)."""

    target: str
    seed: int = 0
    campaign: int = 20
    fault_rate: float = 0.02
    items: int = 2
    image_size: int = 16
    #: Cluster width for the ``cluster`` target (single-kernel targets
    #: ignore it; they have exactly one machine).
    nodes: int = 1
    #: Load profile for the ``loadgen`` target (diurnal | burst |
    #: flash); other targets ignore it.
    profile: str = "burst"

    def schedule_seed(self, index: int) -> int:
        """The derived seed of schedule ``index``."""
        return self.seed * SCHEDULE_SEED_STRIDE + index


@dataclass
class RunOutcome:
    """What one run of the target (baseline or faulted) produced."""

    ok: bool
    failed_clean: bool
    error: str
    outputs: Dict[str, str]
    frozen_writes: int
    stale_refs: int
    fault_ids: Tuple[int, ...]
    observed_fault_ids: Tuple[int, ...]
    injected_by_kind: Dict[str, int]
    decisions: int
    virtual_ns: int
    restarts: int
    retries: int
    #: Cleanly absorbed losses (items skipped after a survived crash,
    #: failed/degraded serve responses).  Missing outputs are only
    #: acceptable when the run accounted for the loss here or failed.
    losses_accounted: int = 0
    #: Per-request :class:`~repro.obs.slo.RequestEvent`s (serving
    #: targets only; empty elsewhere).  Sorted, so SLO evaluation over
    #: them is deterministic.  NOT part of the digest — ScheduleResult
    #: carries only aggregates.
    request_events: Tuple = ()
    #: Autoscaler decisions (``loadgen`` target only; 0 elsewhere).
    scale_ups: int = 0
    #: Brownout refusals (``loadgen`` target only; 0 elsewhere).
    shed_requests: int = 0
    #: The finished machine (see :func:`traced_run`).  NOT part of the
    #: digest.
    machine: Any = None


@dataclass
class ScheduleResult:
    """One faulted schedule's verdict."""

    index: int
    seed: int
    ok: bool
    failed_clean: bool
    error: str
    injected: Dict[str, int]
    decisions: int
    invariants: Dict[str, bool]
    virtual_ns: int
    restarts: int
    scale_ups: int = 0
    shed_requests: int = 0

    @property
    def passed(self) -> bool:
        """All four invariants held."""
        return all(self.invariants.values())

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON view (digest input)."""
        return {
            "index": self.index,
            "seed": self.seed,
            "ok": self.ok,
            "failed_clean": self.failed_clean,
            "error": self.error,
            "injected": dict(sorted(self.injected.items())),
            "decisions": self.decisions,
            "invariants": dict(sorted(self.invariants.items())),
            "passed": self.passed,
            "virtual_ns": self.virtual_ns,
            "restarts": self.restarts,
            "scale_ups": self.scale_ups,
            "shed_requests": self.shed_requests,
        }


@dataclass
class CampaignReport:
    """The full campaign: settings, baseline fingerprint, N schedules."""

    settings: ChaosSettings
    baseline_outputs: Dict[str, str]
    schedules: List[ScheduleResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Every schedule's every invariant held."""
        return all(schedule.passed for schedule in self.schedules)

    @property
    def faults_injected(self) -> int:
        return sum(
            sum(schedule.injected.values()) for schedule in self.schedules
        )

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON view; json.dumps(sort_keys=True) is the digest
        input, so every field here must be deterministic."""
        return {
            "target": self.settings.target,
            "seed": self.settings.seed,
            "campaign": self.settings.campaign,
            "fault_rate": self.settings.fault_rate,
            "items": self.settings.items,
            "image_size": self.settings.image_size,
            "nodes": self.settings.nodes,
            "profile": self.settings.profile,
            "baseline_outputs": dict(sorted(self.baseline_outputs.items())),
            "schedules": [s.to_dict() for s in self.schedules],
            "passed": self.passed,
            "faults_injected": self.faults_injected,
        }

    def digest(self) -> str:
        """Byte-stable fingerprint of the whole campaign."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Output fingerprinting
# ----------------------------------------------------------------------


def _payload_digest(payload: Any) -> str:
    """Content digest of one simulated file's payload."""
    import numpy as np

    hasher = hashlib.sha256()
    if isinstance(payload, np.ndarray):
        hasher.update(str(payload.shape).encode())
        hasher.update(str(payload.dtype).encode())
        hasher.update(payload.tobytes())
    elif isinstance(payload, bytes):
        hasher.update(payload)
    else:
        data = getattr(payload, "data", None)
        if isinstance(data, np.ndarray):
            return _payload_digest(data)
        hasher.update(repr(payload).encode())
    return hasher.hexdigest()


def fingerprint_outputs(kernel, prefix: str = "/out") -> Dict[str, str]:
    """path -> content digest for every file the run wrote under /out."""
    outputs: Dict[str, str] = {}
    for path in sorted(kernel.fs.listdir(prefix)):
        outputs[path] = _payload_digest(kernel.fs.read_file(path))
    return outputs


def _observed_fault_ids(tracer) -> List[int]:
    """fault_ids of every ``fault`` obs instant the run emitted."""
    ids = []
    for span in tracer.closed_spans():
        if span.category == "fault":
            fault_id = span.attrs.get("fault_id")
            if fault_id is not None:
                ids.append(int(fault_id))
    return ids


def _frozen_writes(kernel) -> int:
    """Completed writes onto frozen pages, machine-wide (must be 0)."""
    return sum(
        process.memory.frozen_write_granted
        for process in kernel.processes()
    )


# ----------------------------------------------------------------------
# Target runners
# ----------------------------------------------------------------------


def _chaos_config():
    from repro.core.runtime import FreePartConfig

    return FreePartConfig(
        trace=True,
        rpc_retries=CHAOS_RPC_RETRIES,
        max_restarts_per_agent=CHAOS_MAX_RESTARTS,
    )


def _server_retries(config) -> int:
    """Serving resubmits follow the runtime's crash retries (at least
    the server's default of one)."""
    return max(1, config.rpc_retries) if config is not None else 1


def _make_kernel(plan: Optional[FaultPlan]):
    from repro.sim.kernel import SimKernel

    kernel = SimKernel()
    kernel.enable_tracing()
    if plan is not None:
        kernel.inject_faults(FaultInjector(plan))
    return kernel


def _outcome(
    kernels,
    plan: Optional[FaultPlan],
    machine: Any,
    ok: bool,
    error: str,
    goals: Optional[Dict[str, str]] = None,
    stale_refs: int = 0,
    retries: int = 0,
    losses_accounted: int = 0,
    request_events: Tuple = (),
) -> RunOutcome:
    """Fold a finished run's machines into its outcome.

    ``kernels`` is every machine the run used (one, or each cluster
    node): outputs, frozen writes, restarts, injected and observed
    faults aggregate over all of them, and the run lasts as long as its
    slowest clock.  ``goals`` adds non-file entries to the outputs.
    """
    outputs: Dict[str, str] = {}
    injected = []
    observed: List[int] = []
    by_kind: Dict[str, int] = {}
    for kernel in kernels:
        outputs.update(fingerprint_outputs(kernel))
        injected.extend(kernel.faults.injected)
        observed.extend(_observed_fault_ids(kernel.tracer))
    outputs.update(goals or {})
    for fault in injected:
        by_kind[fault.kind.value] = by_kind.get(fault.kind.value, 0) + 1
    return RunOutcome(
        ok=ok,
        failed_clean=not ok,
        error=error,
        outputs=outputs,
        frozen_writes=sum(_frozen_writes(kernel) for kernel in kernels),
        stale_refs=stale_refs,
        fault_ids=tuple(sorted(fault.fault_id for fault in injected)),
        observed_fault_ids=tuple(sorted(observed)),
        injected_by_kind=dict(sorted(by_kind.items())),
        decisions=plan.decisions if plan is not None else 0,
        virtual_ns=max(kernel.clock.now_ns for kernel in kernels),
        restarts=sum(kernel.restarted_processes for kernel in kernels),
        retries=retries,
        losses_accounted=losses_accounted,
        request_events=request_events,
        machine=machine,
    )


def _run_app(target: str, settings: ChaosSettings,
             plan: Optional[FaultPlan], config) -> RunOutcome:
    """One run of an evaluation application (faulted when plan given).

    A given ``config`` is run with the app's own annotations.
    """
    from repro.apps.base import Workload, execute_app
    from repro.apps.suite import app_for_target
    from repro.attacks.scenarios import build_gateway

    app = app_for_target(target)
    kernel = _make_kernel(plan)
    if config is not None:
        config = replace(config, annotations=tuple(app.annotations))
    gateway = build_gateway("freepart", kernel, app=app, config=config)
    workload = Workload(items=settings.items, image_size=settings.image_size)
    report = execute_app(app, gateway, workload)
    return _outcome(
        [kernel], plan, kernel,
        ok=not report.failed,
        error=report.error,
        retries=gateway.retransmits,
        losses_accounted=(
            report.result.crashes_survived if report.result else 0
        ),
    )


def _run_cve(target: str, settings: ChaosSettings,
             plan: Optional[FaultPlan], config) -> RunOutcome:
    """One protected CVE replay (the attack must stay prevented).

    A given ``config`` is used as is, annotations included.
    """
    from repro.attacks.scenarios import run_attack

    kernel = _make_kernel(plan)
    try:
        result = run_attack(
            target, technique="freepart", kernel=kernel, config=config
        )
    except ReproError as exc:
        # Recovery machinery gave up (restart budget, retransmit cap):
        # the experiment aborted cleanly before the verdict.
        return _outcome(
            [kernel], plan, kernel,
            ok=False, error=f"{type(exc).__name__}: {exc}",
        )
    return _outcome(
        [kernel], plan, kernel,
        ok=result.delivered,
        error="" if result.delivered else "exploit aborted before arming",
        # The attacker-goal booleans are part of the "output": a fault
        # must never flip one of them to True.
        goals={
            f"goal:{goal}": str(getattr(result, goal))
            for goal in ("data_corrupted", "data_exfiltrated",
                         "host_crashed", "code_rewritten")
        },
        # CVE apps absorb crashes per item (crashes_survived); a crash
        # observed during the replay accounts for missing output files.
        losses_accounted=result.agent_crashes,
    )


def _stale_refs(servers) -> int:
    """Tenant refs that outlived the address space that minted them."""
    return sum(
        len(server.registry.stale_keys(server.kernel.processes()))
        for server in servers
    )


def _request_events(servers) -> Tuple:
    """Every node server's request events, sorted (deterministic SLO
    evaluation input)."""
    return tuple(sorted(
        event for server in servers for event in server.events
    ))


def _drained_outcome(plan, server, node_servers, responses) -> RunOutcome:
    """The outcome of a drained serving run, whose failed responses are
    accounted losses; shuts the server down.

    ``node_servers`` are the ``PipelineServer`` of every node (just
    ``server`` on one machine).
    """
    failed = [r for r in responses if not r.ok]
    outcome = _outcome(
        [node_server.kernel for node_server in node_servers], plan, server,
        ok=not failed,
        error=failed[0].error if failed else "",
        stale_refs=_stale_refs(node_servers),
        retries=sum(r.retries for r in responses),
        losses_accounted=len(failed),
        request_events=_request_events(node_servers),
    )
    server.shutdown()
    return outcome


def _run_serve(target: str, settings: ChaosSettings,
               plan: Optional[FaultPlan], config) -> RunOutcome:
    """One multi-tenant serving workload (2 tenants x items requests)."""
    from repro.serve.bench import submit_workload
    from repro.serve.server import PipelineServer

    kernel = _make_kernel(plan)
    server = PipelineServer(
        kernel=kernel,
        config=config,
        pool_size=2,
        batching=True,
        max_retries=_server_retries(config),
    )
    submit_workload(server, 2, settings.items, settings.image_size)
    responses = server.drain()
    return _drained_outcome(plan, server, [server], responses)


def _run_loadgen(target: str, settings: ChaosSettings,
                 plan: Optional[FaultPlan], config) -> RunOutcome:
    """One open-loop load-profile replay with the elastic controllers.

    The canonical schedule of ``settings.profile`` (same for every
    schedule in the campaign — only the fault plan varies) drives a
    server with the autoscaler and brownout controller armed.  Brownout
    sheds and failed responses are accounted losses: the chaos output
    invariant tolerates their missing files, never different ones.
    """
    from repro.serve.loadbench import canonical_schedule, make_server
    from repro.serve.loadgen import run_open_loop

    kernel = _make_kernel(plan)
    server = make_server(kernel, config, _server_retries(config))
    schedule = canonical_schedule(settings.profile, seed=settings.seed)
    result = run_open_loop(server, schedule)
    outcome = _outcome(
        [kernel], plan, server,
        ok=result.served_failed == 0,
        error=(
            f"{result.served_failed} of {result.offered} requests failed"
            if result.served_failed else ""
        ),
        stale_refs=_stale_refs([server]),
        retries=sum(r.retries for r in server.responses),
        losses_accounted=(
            result.served_failed + result.shed + result.rejected
        ),
        request_events=_request_events([server]),
    )
    outcome.scale_ups = server.autoscaler.scale_ups
    outcome.shed_requests = result.shed
    server.shutdown()
    return outcome


def _run_cluster(target: str, settings: ChaosSettings,
                 plan: Optional[FaultPlan], config) -> RunOutcome:
    """One sharded multi-node serving workload under node failures.

    Arms the plan across every node (shared RNG, shared fault-id
    counter), so besides the single-machine faults the drain loop's
    node-failure hook can take whole nodes down; the server re-places
    the dead node's shards and requests on the survivors.  At least two
    nodes run, so a node failure always leaves a survivor.
    """
    from repro.cluster.bench import serve_sharded_workload
    from repro.cluster.kernel import ClusterKernel

    nodes = max(settings.nodes, 2)
    cluster = ClusterKernel(nodes=nodes)
    cluster.enable_tracing()
    if plan is not None:
        cluster.inject_faults(plan)
    server, _, responses = serve_sharded_workload(
        cluster, 2 * nodes, settings.items, settings.image_size,
        config=config, max_retries=_server_retries(config),
    )
    return _drained_outcome(
        plan, server,
        [server.servers[node.index] for node in cluster.nodes], responses,
    )


#: Runner of each kind of target; :func:`target_kind` maps names here.
_RUNNERS = {
    "app": _run_app,
    "cve": _run_cve,
    "serve-bench": _run_serve,
    "loadgen": _run_loadgen,
    "cluster": _run_cluster,
}


def target_kind(target: str) -> Optional[str]:
    """The kind of run a target name selects, or None if unknown.

    ``"app"`` for a sample id or the drone, ``"cve"`` for a CVE id,
    else the workload's own name (``serve-bench``, ``loadgen``,
    ``cluster``).  ``repro trace``, ``report`` and ``chaos`` all resolve
    their targets here.
    """
    from repro.apps.suite import is_app_target

    if target.upper().startswith("CVE-"):
        return "cve"
    if is_app_target(target):
        return "app"
    if target in ("serve-bench", "loadgen", "cluster"):
        return target
    return None


def _runner(target: str):
    kind = target_kind(target)
    if kind is None:
        raise ValueError(
            f"unknown chaos target {target!r} (expected a sample id, "
            "'drone', 'serve-bench', 'loadgen', 'cluster', or a CVE id)"
        )
    return _RUNNERS[kind]


def run_target(target: str, settings: ChaosSettings,
               plan: Optional[FaultPlan]) -> RunOutcome:
    """One run of a target under the hardened chaos configuration,
    faulted when ``plan`` is given."""
    return _runner(target)(target, settings, plan, _chaos_config())


def traced_run(target: str, settings: ChaosSettings):
    """One fault-free run of a target under the runtime's default
    configuration, with tracing on.

    Returns the finished machine: the ``SimKernel`` of an app or CVE
    run, the shut-down ``PipelineServer`` or ``ClusterServer`` of a
    serving run.  ``repro trace`` and ``repro report`` read their spans,
    series and request events from it.
    """
    return _runner(target)(target, settings, None, None).machine


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------


def check_invariants(baseline: RunOutcome,
                     faulted: RunOutcome) -> Dict[str, bool]:
    """The four chaos invariants for one schedule."""
    subset_ok = all(
        baseline.outputs.get(path) == digest
        for path, digest in faulted.outputs.items()
    )
    return {
        # 1. Output equals the fault-free output, or the run failed
        #    cleanly having written nothing that disagrees with it.
        #    "Failed cleanly" includes item-level losses the run itself
        #    accounted for (crashes survived, failed responses): those
        #    may leave output files missing, never different.
        "output": subset_ok and (
            faulted.outputs == baseline.outputs
            or faulted.failed_clean
            or faulted.losses_accounted > 0
        ),
        # 2. No frozen-page write ever completed.
        "frozen": faulted.frozen_writes == 0,
        # 3. No tenant ref survived the restart of its minting process.
        "refs": faulted.stale_refs == 0,
        # 4. Every injected fault was emitted as an obs instant.
        "observed": faulted.observed_fault_ids == faulted.fault_ids,
    }


def faulted_runs(settings: ChaosSettings):
    """Yield ``(index, seed, outcome)`` for every faulted schedule."""
    rates = FaultRates.scaled(settings.fault_rate)
    for index in range(settings.campaign):
        seed = settings.schedule_seed(index)
        plan = FaultPlan(seed, rates)
        yield index, seed, run_target(settings.target, settings, plan)


def run_campaign(settings: ChaosSettings) -> CampaignReport:
    """Run the baseline plus ``settings.campaign`` faulted schedules."""
    baseline = run_target(settings.target, settings, plan=None)
    if not baseline.ok:
        raise ReproError(
            f"chaos baseline for {settings.target!r} failed fault-free: "
            f"{baseline.error}"
        )
    report = CampaignReport(
        settings=settings, baseline_outputs=baseline.outputs
    )
    for index, seed, faulted in faulted_runs(settings):
        report.schedules.append(ScheduleResult(
            index=index,
            seed=seed,
            ok=faulted.ok,
            failed_clean=faulted.failed_clean,
            error=faulted.error,
            injected=faulted.injected_by_kind,
            decisions=faulted.decisions,
            invariants=check_invariants(baseline, faulted),
            virtual_ns=faulted.virtual_ns,
            restarts=faulted.restarts,
            scale_ups=faulted.scale_ups,
            shed_requests=faulted.shed_requests,
        ))
    return report


def slo_sweep(settings: ChaosSettings) -> Dict[str, Any]:
    """SLO-evaluate the request events of every faulted schedule.

    No baseline and no invariants: the sweep reports which schedules'
    faults reached the burn-rate engine as alerts.
    """
    from repro.obs.slo import evaluate_slos

    schedules = []
    for index, seed, outcome in faulted_runs(settings):
        alerts = [
            alert.to_dict()
            for result in evaluate_slos(outcome.request_events)
            for alert in result.alerts
        ]
        schedules.append({
            "index": index,
            "seed": seed,
            "ok": outcome.ok,
            "requests": len(outcome.request_events),
            "errors": sum(
                1 for event in outcome.request_events if not event.ok
            ),
            "alert_count": len(alerts),
            "alerts": alerts,
        })
    return {
        "target": settings.target,
        "seed": settings.seed,
        "campaign": settings.campaign,
        "fault_rate": settings.fault_rate,
        "alerting_schedules": sum(
            1 for schedule in schedules if schedule["alert_count"]
        ),
        "schedules": schedules,
    }
