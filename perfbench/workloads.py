"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`setup` (timed as
set-up), then replays *rounds* of that identical input.  A round times
every op on the host clock, runs the workload's correctness checks
(raising :class:`CheckFailed`), and returns its deterministic results —
virtual-time outcomes and digests that every round, the traced run, and
any later run with the same seed must reproduce exactly.

Why these four (see ``README.md`` beside this file for the full map):

* ``serve_steady`` — one long-lived pool serving 1,024 clean diurnal
  arrivals: per-request state builds up in the pooled agents.
* ``cluster_burst`` — storms against a 3-node cluster with faults,
  autoscaling and brownout: the only workload exercising ``cluster``,
  ``faults``, ``serve.autoscale``, admission shedding and the span tracer.
* ``app_suite`` — the 23 Fig. 13 apps one-shot, native then FreePart, on
  fresh kernels: dispatch, IPC, frameworks and per-page checks dominate.
* ``lint`` — the static checker over a generated corpus: no simulator.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.hostspeed import HostSpeed
from perfbench.lintcorpus import LintCorpus, generate_corpus
from repro.apps.base import Workload, execute_app
from repro.apps.suite import SAMPLE_IDS, make_app
from repro.attacks.scenarios import build_gateway
from repro.serve import loadgen
from repro.serve.loadbench import (
    BUDGET_NS,
    CONTROL_BUDGET_NS,
    TENANTS,
    ZIPF_ALPHA,
    canonical_profile,
    elastic_config,
)
from repro.serve.autoscale import control_slo
from repro.sim.ipc import IpcAccounting
from repro.sim.kernel import SimKernel
from repro.staticcheck.checker import check_source
from repro.staticcheck.report import Severity


class CheckFailed(AssertionError):
    """A correctness or determinism check failed inside a run."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest_of(value: Any) -> str:
    """sha256 of a value's canonical ``repr`` (dicts sorted by key)."""
    return hashlib.sha256(repr(_canonical(value)).encode()).hexdigest()


def _canonical(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((str(k), _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


class OpTimer:
    """Host nanoseconds per op and per round.

    In an untraced run a :class:`~perfbench.hostspeed.HostSpeed` scales
    every interval to reference host speed (its calibration samples run
    between ops); in a traced run each op is also the tracer's root span.
    """

    def __init__(self, tracer=None, speed: Optional[HostSpeed] = None) -> None:
        self.tracer = tracer
        self.speed = speed
        self.op_ns: List[int] = []
        self._start: Optional[int] = None
        self._round_start = 0
        self.wall_ns = 0

    @property
    def open(self) -> bool:
        return self._start is not None

    def start(self) -> None:
        """Start (or resume) timing a round."""
        if self.speed is not None:
            self.speed.start()
        self._round_start = time.perf_counter_ns()

    def begin(self) -> None:
        if self.tracer is not None:
            self.tracer.begin_op()
        self._start = time.perf_counter_ns()

    def end(self) -> None:
        raw_ns = time.perf_counter_ns() - self._start
        self._start = None
        if self.tracer is not None:
            self.tracer.end_op()
        if self.speed is None:
            self.op_ns.append(raw_ns)
        else:
            self.speed.op(raw_ns)
            self.speed.mark()

    def stop(self) -> int:
        """Stop timing; :attr:`wall_ns` sums every start-stop interval."""
        if self.speed is None:
            self.wall_ns += time.perf_counter_ns() - self._round_start
        else:
            self.op_ns = self.speed.stop()
            self.wall_ns = self.speed.scaled_ns
        return self.wall_ns


@dataclass
class Round:
    """What one round measured and produced."""

    op_ns: List[int]
    wall_ns: int
    attempted: int
    failed: int
    #: Deterministic outcomes (virtual time, counts, digests).
    results: Dict[str, Any]
    #: Program-state counters read after the round (traced runs only).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Ops per replay of one schedule on one fresh server, in op order
    #: (serve workloads); per-request growth is measured within each.
    replays: List[int] = field(default_factory=list)


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------

#: Arrivals per serving round: enough on one pool (>= 1,000) for the
#: per-request growth to show, and for a p99 with 10 samples beyond it.
SERVE_ARRIVALS = 1024


def _schedule(name: str, seed: int, **profile: Any) -> loadgen.ArrivalSchedule:
    """The first :data:`SERVE_ARRIVALS` arrivals of a seeded profile."""
    full = loadgen.generate_schedule(
        canonical_profile(name, **profile), seed=seed,
        tenants=TENANTS, zipf_alpha=ZIPF_ALPHA,
    )
    require(len(full.arrivals) >= SERVE_ARRIVALS,
            f"{name} schedule has only {len(full.arrivals)} arrivals")
    return loadgen.ArrivalSchedule(
        profile=full.profile, seed=seed,
        arrivals=full.arrivals[:SERVE_ARRIVALS],
    )


def _time_serving(
    server, timer: OpTimer, finish: str,
    outputs: Dict[Tuple[int, int], str],
    route: Optional[Callable[[str], int]],
) -> None:
    """Time each op from ``submit`` through the next ``finish`` call.

    Installed on the server *instance* (the op boundary, present in both
    traced and untraced runs).  A submit made while an op is open or a
    finish call is running (node-failure resubmission) belongs to that
    op.  Each admitted request's output path is remembered, keyed by its
    node (``route(tenant)``; 0 without a cluster) and request id, so the
    round can check that every ok response wrote it.
    """
    submit = server.submit
    finish_call = getattr(server, finish)
    finishing = [False]

    def timed_submit(tenant_id, calls, deadline_ns=None, priority=0):
        owns = not timer.open and not finishing[0]
        if owns:
            timer.begin()
        try:
            request = submit(tenant_id, calls, deadline_ns, priority=priority)
        except Exception:
            if owns:
                timer.end()
            raise
        node = route(tenant_id) if route is not None else 0
        outputs[(node, request.request_id)] = calls[-1].args[0]
        return request

    def timed_finish():
        finishing[0] = True
        try:
            return finish_call()
        finally:
            finishing[0] = False
            if timer.open:
                timer.end()

    server.submit = timed_submit
    setattr(server, finish, timed_finish)


def _untime_serving(server, finish: str) -> None:
    """Drop the instance hooks (and the reference cycle they make)."""
    del server.submit
    delattr(server, finish)


def _check_serving(
    result: loadgen.LoadgenResult, servers: Dict[int, Any],
    outputs: Dict[Tuple[int, int], str],
) -> None:
    require(
        result.admitted + result.rejected + result.shed == result.offered,
        f"admitted {result.admitted} + rejected {result.rejected} + shed "
        f"{result.shed} != offered {result.offered}",
    )
    require(
        result.served_ok + result.served_failed == result.admitted,
        f"served ok {result.served_ok} + failed {result.served_failed} "
        f"!= admitted {result.admitted}",
    )
    for node, server in servers.items():
        for response in server.responses:
            if not response.ok:
                continue
            path = outputs.get((node, response.request_id))
            require(
                path is not None and server.kernel.fs.exists(path),
                f"ok response {response.request_id} on node {node} left "
                f"no output file ({path})",
            )


@dataclass
class ServePart:
    """One schedule and the fresh server that replays it."""

    schedule: loadgen.ArrivalSchedule
    server: Any


@dataclass
class ServeFixture:
    parts: List[ServePart]
    schedule_ns: int

    def digest(self) -> str:
        return digest_of([part.schedule.digest() for part in self.parts])


def _tally_servers(
    servers: Dict[int, Any], ipc_before: Dict[int, IpcAccounting],
    tally: Dict[str, int],
) -> None:
    """Add one replay's server-state counts into ``tally``."""
    for node, server in servers.items():
        kernel = server.kernel
        for process in kernel.processes():
            if process.role == "host" or not process.alive:
                continue
            tally["buffers"] = max(
                tally["buffers"], len(list(process.memory.buffers()))
            )
            tally["resident"] = max(
                tally["resident"], process.memory.resident_bytes
            )
        delta = kernel.ipc.delta_since(ipc_before[node])
        tally["messages"] += delta.messages
        tally["message_bytes"] += delta.message_bytes
        tally["lazy"] += delta.lazy_copies + delta.zero_copy_transfers
        tally["copies"] += delta.total_copies
        tally["retries"] += sum(r.retries for r in server.responses)
        tally["calls"] += server.batch_stats.calls
        tally["batches"] += server.batch_stats.batches
        if server.autoscaler is not None:
            tally["scale_ups"] += server.autoscaler.scale_ups
        tally["faults"] += len(getattr(kernel.faults, "injected", ()))


def _serving_counters(tally: Dict[str, int], ops: int) -> Dict[str, float]:
    """Per-layer counters from the servers' state after a round."""
    return {
        "sim.memory.resident_buffers_max": tally["buffers"],
        "sim.memory.resident_bytes": tally["resident"],
        "sim.ipc.messages": tally["messages"] / ops,
        "sim.ipc.bytes": tally["message_bytes"] / ops,
        "core.runtime.ldc_lazy_ratio": (
            tally["lazy"] / tally["copies"] if tally["copies"] else 0.0
        ),
        "serve.retries": tally["retries"],
        "serve.batching.items_per_batch": (
            tally["calls"] / tally["batches"] if tally["batches"] else 0.0
        ),
        "serve.autoscale.scale_ups": tally["scale_ups"],
        "faults.injected": tally["faults"],
    }


def _serve_round(fixture: ServeFixture, timer: OpTimer, cluster: bool) -> Round:
    """Replay every part open-loop; check it; gather its outcomes."""
    from repro.obs.slo import evaluate_slos

    merged = loadgen.LoadgenResult(
        schedule_digest=fixture.digest(), offered=0, admitted=0, rejected=0,
        shed=0, served_ok=0, served_failed=0,
    )
    parts: List[Dict[str, Any]] = []
    replays: List[int] = []
    tally = dict.fromkeys(
        ("buffers", "resident", "messages", "message_bytes", "lazy",
         "copies", "retries", "calls", "batches", "scale_ups", "faults"), 0
    )
    slo_eval_ns = 0
    inter_node_bytes = 0
    for part in fixture.parts:
        server = part.server
        if cluster:
            servers = dict(server.servers)
            finish, replay = "step", loadgen.run_open_loop_cluster
            route = server.route
        else:
            servers = {0: server}
            finish, replay = "serve_one", loadgen.run_open_loop
            route = None
        outputs: Dict[Tuple[int, int], str] = {}
        _time_serving(server, timer, finish, outputs, route)
        ipc_before = {i: s.kernel.ipc.snapshot() for i, s in servers.items()}
        ops_before = len(timer.op_ns)
        timer.start()
        result = replay(server, part.schedule)
        timer.stop()
        replays.append(len(timer.op_ns) - ops_before)
        _untime_serving(server, finish)
        _check_serving(result, servers, outputs)
        events = sorted(e for s in servers.values() for e in s.events)
        started = time.perf_counter_ns()
        alerts = sum(len(r.alerts) for r in evaluate_slos(events))
        slo_eval_ns += time.perf_counter_ns() - started
        facts = {"loadgen": result.to_dict(BUDGET_NS), "slo_alerts": alerts}
        if cluster:
            inter_node_bytes += server.cluster.accounting.inter_node_bytes
            facts.update({
                "node_failures": server.cluster.node_failures,
                "faults": [len(s.kernel.faults.injected) for s in servers.values()],
                "scale_ups": [s.autoscaler.scale_ups for s in servers.values()],
                "spans": [len(s.kernel.tracer.spans) for s in servers.values()],
            })
        parts.append(facts)
        for name in ("offered", "admitted", "rejected", "shed", "served_ok",
                     "served_failed"):
            setattr(merged, name, getattr(merged, name) + getattr(result, name))
        merged.client_events.extend(result.client_events)
        if timer.tracer is not None:
            _tally_servers(servers, ipc_before, tally)
        # Release the part before the next one runs.
        server.shutdown()
        part.server = None
    counters: Dict[str, float] = {}
    if timer.tracer is not None:
        counters = _serving_counters(tally, len(timer.op_ns))
        counters.update({
            "serve.sheds": merged.shed,
            "serve.rejects": merged.rejected,
            "cluster.inter_node_bytes": inter_node_bytes,
            "serve.loadgen.schedule_ms": fixture.schedule_ns / 1e6,
            "obs.slo_eval_ms": slo_eval_ns / 1e6,
        })
    results = {
        "parts": parts,
        "virt_goodput": merged.goodput(BUDGET_NS),
        "virt_p99_ms": merged.p99_latency_ns() / 1e6,
    }
    return Round(
        op_ns=timer.op_ns, wall_ns=timer.wall_ns, attempted=merged.offered,
        failed=merged.rejected + merged.shed + merged.served_failed,
        results=results, counters=counters, replays=replays,
    )


class ServeSteady:
    """Clean open-loop diurnal traffic below capacity, one pooled server."""

    name = "serve_steady"
    tail_percent = 99.0
    traced_rounds = 1

    def setup(self, seed: int) -> ServeFixture:
        from repro.core.runtime import FreePartConfig
        from repro.serve.server import PipelineServer

        started = time.perf_counter_ns()
        # 300 rps base (peak 420) against a 2-lane pool's ~1,345 rps.
        schedule = _schedule("diurnal", seed, duration_ns=5_000_000_000)
        schedule_ns = time.perf_counter_ns() - started
        server = PipelineServer(
            kernel=SimKernel(), config=FreePartConfig(), pool_size=2,
            batching=True, queue_capacity=512, max_retries=1,
        )
        return ServeFixture([ServePart(schedule, server)], schedule_ns)

    def run_round(self, fixture: ServeFixture, timer: OpTimer) -> Round:
        return _serve_round(fixture, timer, cluster=False)


class ClusterBurst:
    """Repeating 8x storms with 1 % faults on elastic 3-node clusters."""

    name = "cluster_burst"
    tail_percent = 99.0
    traced_rounds = 1
    #: Schedules per round, each from its own sub-seed on a fresh cluster.
    #: Brownout and autoscaling make one schedule's shed count swing by
    #: half from seed to seed; a round spans three to average that out.
    PARTS = 3
    FAULT_RATE = 0.01
    #: Per-dispatch node-failure probability.  ``FaultRates.scaled`` would
    #: make it 2 %, which kills two of the three nodes within the first
    #: hundred arrivals of every seed and leaves a one-node "cluster".
    NODE_FAILURE_RATE = 0.0

    def setup(self, seed: int) -> ServeFixture:
        from repro.cluster.kernel import ClusterKernel
        from repro.cluster.serve import ClusterServer
        from repro.core.runtime import FreePartConfig
        from repro.faults.plan import FaultPlan, FaultRates

        parts: List[ServePart] = []
        schedule_ns = 0
        for part_seed in range(seed * self.PARTS, (seed + 1) * self.PARTS):
            started = time.perf_counter_ns()
            # A 25 ms storm at 8 x 600 rps every 100 ms: over the fixed
            # pools' capacity, so the autoscaler grows them and brownout
            # sheds.
            schedule = _schedule(
                "burst", part_seed, base_rps=600.0,
                duration_ns=1_500_000_000, storm_every_ns=100_000_000,
                storm_ns=25_000_000, storm_offset_ns=40_000_000,
                storm_multiplier=8.0,
            )
            schedule_ns += time.perf_counter_ns() - started
            cluster = ClusterKernel(nodes=3)
            cluster.enable_tracing()
            cluster.inject_faults(FaultPlan(part_seed, dataclasses.replace(
                FaultRates.scaled(self.FAULT_RATE),
                node_failure=self.NODE_FAILURE_RATE,
            )))
            server = ClusterServer(
                cluster=cluster,
                config=FreePartConfig(rpc_retries=2, max_restarts_per_agent=8),
                pool_size=2, batching=True, queue_capacity=512,
                max_retries=2,
            )
            for node_server in server.servers.values():
                node_server.enable_autoscale(
                    elastic_config(), spec=control_slo(CONTROL_BUDGET_NS)
                )
                node_server.enable_brownout(spec=control_slo(BUDGET_NS))
            parts.append(ServePart(schedule, server))
        return ServeFixture(parts, schedule_ns)

    def run_round(self, fixture: ServeFixture, timer: OpTimer) -> Round:
        return _serve_round(fixture, timer, cluster=True)


# ----------------------------------------------------------------------
# Fig. 13 application suite
# ----------------------------------------------------------------------

#: IPC lanes compared run to run (reconciled via IpcAccounting).
_LANES = (
    "messages", "message_bytes", "framed_messages", "lazy_copies",
    "lazy_copy_bytes", "nonlazy_copies", "nonlazy_copy_bytes",
    "zero_copy_transfers", "zero_copy_bytes", "cow_downgrades", "cow_bytes",
)
_REPORT_FIELDS = {
    "messages": "ipc_messages", "message_bytes": "ipc_bytes",
    "framed_messages": "framed_messages", "lazy_copies": "lazy_copies",
    "lazy_copy_bytes": "lazy_copy_bytes", "nonlazy_copies": "nonlazy_copies",
    "nonlazy_copy_bytes": "nonlazy_copy_bytes",
    "zero_copy_transfers": "zero_copy_transfers",
    "zero_copy_bytes": "zero_copy_bytes", "cow_downgrades": "cow_downgrades",
    "cow_bytes": "cow_bytes",
}


def report_accounting(report) -> IpcAccounting:
    """The IPC lanes a run report carries, as an accounting object."""
    return IpcAccounting(**{
        lane: getattr(report, attr) for lane, attr in _REPORT_FIELDS.items()
    })


def run_app(app, technique: str, workload: Workload):
    """``bench.runner.run_under``, with the kernel and gateway kept.

    The same three steps (a fresh :class:`SimKernel`, ``build_gateway``,
    ``execute_app``); the benchmark reads the agents' address spaces and
    the dispatch cache afterwards.
    """
    kernel = SimKernel()
    gateway = build_gateway(technique, kernel, app=app)
    return execute_app(app, gateway, workload), kernel, gateway


@dataclass
class AppFixture:
    workload: Workload
    input_digest: str

    def digest(self) -> str:
        return self.input_digest


def check_app_pair(
    expected: Dict[int, Dict[str, int]], sample_id: int, native, protected
) -> None:
    """A sample's runs must succeed and their IPC lanes must reconcile.

    The native run does no IPC at all; the FreePart run's lanes must
    match ``expected[sample_id]`` exactly — the lanes of the first
    FreePart run of this sample in the process, recorded on first sight.
    """
    for report in (native, protected):
        require(not report.failed,
                f"sample {sample_id} {report.gateway} failed: {report.error}")
    report_accounting(native).reconcile(
        f"sample {sample_id} native", messages=0, total_copies=0
    )
    lanes = report_accounting(protected).lanes()
    report_accounting(protected).reconcile(
        f"sample {sample_id} freepart",
        **expected.setdefault(sample_id, lanes),
    )


class AppSuite:
    """Every catalog sample, one-shot, native then FreePart."""

    name = "app_suite"
    tail_percent = 90.0
    traced_rounds = 4
    WORKLOAD = dict(items=1, image_size=64)

    def __init__(self) -> None:
        #: Per-sample FreePart IPC lanes, shared by every round of a run.
        self.expected: Dict[int, Dict[str, int]] = {}

    def setup(self, seed: int) -> AppFixture:
        workload = Workload(seed=seed, **self.WORKLOAD)
        hasher = hashlib.sha256(f"app_suite/{workload}\n".encode())
        for sample_id in SAMPLE_IDS:
            app = make_app(sample_id)
            hasher.update(repr(app.schedule).encode())
            kernel = SimKernel()
            app.setup(kernel, workload)
            for simfile in sorted(kernel.fs.files(), key=lambda f: f.path):
                hasher.update(simfile.path.encode())
                hasher.update(_payload_bytes(simfile.payload))
        return AppFixture(workload, hasher.hexdigest())

    def run_round(self, fixture: AppFixture, timer: OpTimer) -> Round:
        traced = timer.tracer is not None
        native_s, protected_s = 0.0, 0.0
        per_sample: List[Tuple[int, float, float, Dict[str, int]]] = []
        buffers, resident, hits, lookups = 0, 0, 0, 0
        messages, message_bytes, lazy, copies, restarts = 0, 0, 0, 0, 0
        timer.start()
        for sample_id in SAMPLE_IDS:
            timer.begin()
            native, _, _ = run_app(make_app(sample_id), "none", fixture.workload)
            protected, kernel, gateway = run_app(
                make_app(sample_id), "freepart", fixture.workload
            )
            timer.end()
            check_app_pair(self.expected, sample_id, native, protected)
            native_s += native.virtual_seconds
            protected_s += protected.virtual_seconds
            per_sample.append((
                sample_id, native.virtual_seconds, protected.virtual_seconds,
                report_accounting(protected).lanes(),
            ))
            if traced:
                for process in kernel.processes():
                    if process.role == "host" or not process.alive:
                        continue
                    buffers = max(buffers, len(list(process.memory.buffers())))
                    resident = max(resident, process.memory.resident_bytes)
                hits += gateway.dispatch_stats.hits
                lookups += gateway.dispatch_stats.hits + gateway.dispatch_stats.misses
                accounting = report_accounting(protected)
                messages += accounting.messages
                message_bytes += accounting.message_bytes
                lazy += accounting.lazy_copies + accounting.zero_copy_transfers
                copies += accounting.total_copies
                restarts += protected.restarts
        wall_ns = timer.stop()
        ops = len(SAMPLE_IDS)
        results = {
            "samples": per_sample,
            "virt_overhead_ratio": protected_s / native_s,
        }
        counters = {}
        if traced:
            counters = {
                "sim.memory.resident_buffers_max": buffers,
                "sim.memory.resident_bytes": resident,
                "core.runtime.dispatch_hit_ratio": hits / lookups if lookups else 0.0,
                "core.runtime.ldc_lazy_ratio": lazy / copies if copies else 0.0,
                "sim.ipc.messages": messages / ops,
                "sim.ipc.bytes": message_bytes / ops,
                "core.agent.restarts": restarts,
            }
        return Round(
            op_ns=timer.op_ns, wall_ns=wall_ns, attempted=ops, failed=0,
            results=results, counters=counters,
        )


def _payload_bytes(payload: Any) -> bytes:
    if isinstance(payload, np.ndarray):
        return payload.tobytes()
    return repr(payload).encode()


# ----------------------------------------------------------------------
# Static checker
# ----------------------------------------------------------------------


@dataclass
class LintFixture:
    corpus: LintCorpus

    def digest(self) -> str:
        return self.corpus.digest()


def check_lint_file(item, findings) -> None:
    """Clean files have no error findings; planted ones are flagged."""
    if item.planted is None:
        errors = [f.rule for f in findings if f.severity is Severity.ERROR]
        require(not errors, f"clean {item.path} has error findings {errors}")
    else:
        require(
            any(f.rule == item.planted for f in findings),
            f"{item.path}: planted {item.planted} not flagged",
        )


class Lint:
    """The static checker over a seeded corpus of generated programs."""

    name = "lint"
    tail_percent = 99.0
    traced_rounds = 1
    FILES = 256

    def setup(self, seed: int) -> LintFixture:
        return LintFixture(generate_corpus(seed, self.FILES))

    def run_round(self, fixture: LintFixture, timer: OpTimer) -> Round:
        results: List[Tuple[str, Tuple[Tuple[str, int, int], ...]]] = []
        timer.start()
        for item in fixture.corpus.files:
            timer.begin()
            findings, _ = check_source(item.path, item.source)
            timer.end()
            check_lint_file(item, findings)
            results.append((
                item.path, tuple((f.rule, f.line, f.col) for f in findings)
            ))
        wall_ns = timer.stop()
        findings_total = sum(len(found) for _, found in results)
        counters = {}
        if timer.tracer is not None:
            counters = {"staticcheck.findings": findings_total / len(results)}
        return Round(
            op_ns=timer.op_ns, wall_ns=wall_ns, attempted=len(results),
            failed=0, results={"findings": results}, counters=counters,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (ServeSteady, ClusterBurst, AppSuite, Lint)
}
