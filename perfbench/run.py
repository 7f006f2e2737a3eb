"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 20 --trace 0

Run from the repository root (the program is imported from ``src/``).
An untraced run (``--trace 0``) times whole rounds of the workload's input
until ``--seconds`` have been measured and the tail percentile has enough
samples, and prints the end-to-end metrics.  A traced run (``--trace 1``)
first replays two untraced reference rounds, then wraps every layer
(:mod:`perfbench.layertrace`), replays a fixed number of rounds, removes
the wrappers, and prints the per-layer metrics; its spans are written to
``.perfbench_out/``.

Both kinds check correctness inside every round and determinism across
rounds (and traced against untraced).  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.  A failed
check prints ``correct: false`` and exits 1.
"""

import time

_STARTED_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# Each workload runs in one single-threaded process: numerical libraries
# must not fan out to threads the other workload processes compete for.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Set-ups per run; ``setup_s`` reports their median (plus import time).
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MiB",
}

#: Every per-layer metric with its unit; 0 where a workload never enters
#: the layer (e.g. every ``sim.*`` metric on ``lint``).
PER_LAYER_UNITS = {
    "sim.memory.self_ms": "ms",
    "sim.memory.probes_per_op": "count",
    "sim.memory.probes_per_op.q4_over_q1": "ratio",
    "sim.memory.resident_buffers_max": "count",
    "sim.memory.resident_bytes": "bytes",
    "sim.memory.freed_ratio": "ratio",
    "sim.memory.check_calls": "count",
    "sim.ipc.self_ms": "ms",
    "sim.ipc.messages": "count",
    "sim.ipc.bytes": "bytes",
    "sim.kernel.self_ms": "ms",
    "sim.kernel.spawns": "count",
    "core.statemachine.self_ms": "ms",
    "core.statemachine.transitions_per_op": "count",
    "core.runtime.self_ms": "ms",
    "core.runtime.dispatch_hit_ratio": "ratio",
    "core.runtime.ldc_lazy_ratio": "ratio",
    "core.gateway.self_ms": "ms",
    "core.agent.self_ms": "ms",
    "core.agent.restarts": "count",
    "core.rpc.self_ms": "ms",
    "frameworks.self_ms": "ms",
    "serve.server.self_ms": "ms",
    "serve.gateway.self_ms": "ms",
    "serve.pool.self_ms": "ms",
    "serve.admission.self_ms": "ms",
    "serve.admission.wait_virt_ms": "ms",
    "serve.admission.depth_max": "count",
    "serve.batching.self_ms": "ms",
    "serve.batching.items_per_batch": "count",
    "serve.retries": "count",
    "serve.sheds": "count",
    "serve.rejects": "count",
    "serve.autoscale.self_ms": "ms",
    "serve.autoscale.scale_ups": "count",
    "serve.loadgen.schedule_ms": "ms",
    "faults.self_ms": "ms",
    "faults.injected": "count",
    "cluster.self_ms": "ms",
    "cluster.inter_node_bytes": "bytes",
    "obs.self_ms": "ms",
    "obs.spans": "count",
    "obs.slo_eval_ms": "ms",
    "staticcheck.callgraph.self_ms": "ms",
    "staticcheck.inference.self_ms": "ms",
    "staticcheck.dataflow.self_ms": "ms",
    "staticcheck.rules.self_ms": "ms",
    "staticcheck.findings": "count",
    "unattributed.self_ms": "ms",
    "virt_goodput": "ratio",
    "virt_p99_ms": "ms",
    "virt_overhead_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.ops": "count",
}


#: Per-layer metrics measured on the host clock; every other per-layer
#: metric is a deterministic count, ratio or virtual time, summarized by
#: the traced run's ``counts_digest``.
HOST_TIMED = {
    "serve.loadgen.schedule_ms", "obs.slo_eval_ms", "trace.overhead_ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Set-up, rounds and determinism checks for one workload and seed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.setup_ns = []
        self.input_digest = None

    def fresh(self):
        """A freshly set-up fixture; its input digest must never change.

        Earlier rounds' garbage is collected first, so every round starts
        from the same heap and no round pays for another's cycles.  The
        set-up heap is then frozen, as a long-lived server's start-up
        state is: the cyclic collector's full passes during the round
        scan only what the round itself allocates.
        """
        from perfbench.hostspeed import calibration_ns, scaled
        from perfbench.workloads import require

        gc.unfreeze()
        gc.collect()
        before = calibration_ns()
        started = time.perf_counter_ns()
        fixture = self.workload.setup(self.seed)
        raw_ns = time.perf_counter_ns() - started
        self.setup_ns.append(scaled(raw_ns, before, calibration_ns()))
        gc.collect()
        gc.freeze()
        digest = fixture.digest()
        require(
            self.input_digest in (None, digest),
            f"seed {self.seed} produced input digest {digest}, "
            f"earlier {self.input_digest}",
        )
        self.input_digest = digest
        return fixture

    @staticmethod
    def same_results(reference, other, what):
        from perfbench.workloads import digest_of, require

        require(
            digest_of(other.results) == digest_of(reference.results),
            f"{what} results differ from the reference round",
        )


def untraced(runner, seconds, import_ns):
    """Rounds until ``seconds`` are measured; the end-to-end metrics."""
    from perfbench.hostspeed import HostSpeed
    from perfbench.layertrace import assert_unwrapped
    from perfbench.stats import peak_rss_mb, samples_for, tail
    from perfbench.workloads import OpTimer
    from repro.serve.metrics import percentile

    assert_unwrapped()
    min_ops = samples_for(runner.workload.tail_percent)
    for _ in range(SETUP_REPEATS - 1):
        runner.fresh()
    rounds = []
    measured_ns = 0
    ops = 0
    while True:
        fixture = runner.fresh()
        round_ = runner.workload.run_round(fixture, OpTimer(speed=HostSpeed()))
        if rounds:
            runner.same_results(rounds[0], round_, f"round {len(rounds) + 1}")
        rounds.append(round_)
        measured_ns += round_.wall_ns
        ops += len(round_.op_ns)
        mean_round_ns = measured_ns / len(rounds)
        if (ops >= min_ops
                and measured_ns + mean_round_ns / 2 >= seconds * 1e9):
            break
    op_ms = sorted(ns / 1e6 for r in rounds for ns in r.op_ns)
    level = runner.workload.tail_percent
    tail_ms, beyond = tail(op_ms, level)
    metrics = {
        "setup_s": (import_ns + statistics.median(runner.setup_ns)) / 1e9,
        "ops_per_s": statistics.median(
            len(r.op_ns) / (r.wall_ns / 1e9) for r in rounds
        ),
        "op_ms.p50": percentile(op_ms, 0.5),
        "op_ms.tail": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    first = rounds[0].results
    virt = {k: first[k] for k in sorted(first) if k.startswith("virt_")}
    print(
        f"{runner.workload.name} seed={runner.seed} rounds={len(rounds)} "
        f"ops={ops} measured_s={measured_ns / 1e9:.3f} "
        f"setups={len(runner.setup_ns)} input_digest={runner.input_digest}"
    )
    print(
        f"  op_ms.p50 over {ops} samples; op_ms.tail is p{level:g} with "
        f"{beyond} samples beyond it"
    )
    for name, value in list(metrics.items()) + list(virt.items()):
        unit = END_TO_END_UNITS.get(name, "ms" if name.endswith("_ms") else "ratio")
        print(f"  {name} = {value:.6g} {unit}")
    return rounds, metrics


def _observers():
    """Counters that need a call's receiver or return value."""

    def add(tracer, key, amount):
        tracer.values[key] = tracer.values.get(key, 0) + amount

    def transition(tracer, args, result):
        if result is not None:
            add(tracer, "transitions", 1)

    def admitted(tracer, args, result):
        queue = args[0]
        tracer.values["depth_max"] = max(
            tracer.values.get("depth_max", 0), queue.pending
        )

    def dispatched(tracer, args, request):
        if request is not None:
            add(tracer, "dispatched", 1)
            add(tracer, "wait_ns", args[0].clock.now_ns - request.enqueued_at_ns)

    def pipeline_done(tracer, args, result):
        stats = args[0].dispatch_stats
        add(tracer, "dispatch_hits", stats.hits)
        add(tracer, "dispatch_lookups", stats.hits + stats.misses)

    return {
        "TemporalStateMachine.observe_call": transition,
        "AdmissionQueue.submit": admitted,
        "AdmissionQueue.next_request": dispatched,
        "ServeGateway.call_many": pipeline_done,
    }


PROBE = "AddressSpace.is_writable"


def traced(runner, seconds, import_ns):
    """Untraced reference rounds, then fixed traced rounds; the per-layer
    metrics.

    The first reference round also warms the process up; the second is
    the base of ``trace.overhead_ratio``.  Both it and the traced rounds
    are scaled for host speed.
    """
    from perfbench.hostspeed import HostSpeed
    from perfbench.layertrace import LayerTracer, assert_unwrapped
    from perfbench.stats import quarter_ratio
    from perfbench.workloads import OpTimer, digest_of

    workload = runner.workload
    assert_unwrapped()
    reference = workload.run_round(runner.fresh(), OpTimer())
    untraced_base = workload.run_round(
        runner.fresh(), OpTimer(speed=HostSpeed())
    )
    runner.same_results(reference, untraced_base, "second untraced round")
    # Set up before wrapping: set-up work is not part of any op.
    fixtures = [runner.fresh() for _ in range(workload.traced_rounds)]
    tracer = LayerTracer(observers=_observers(), per_op_keys=(PROBE,))
    rounds = []
    with tracer:
        for fixture in fixtures:
            rounds.append(workload.run_round(
                fixture, OpTimer(tracer, speed=HostSpeed())
            ))
    assert_unwrapped()
    for index, round_ in enumerate(rounds):
        runner.same_results(reference, round_, f"traced round {index + 1}")

    calls, values, ops = tracer.calls, tracer.values, tracer.ops
    probes = [counts[0] for counts in tracer.per_op_counts]
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics.update(tracer.self_ms_per_op())
    lookups = values.get("dispatch_lookups", 0)
    metrics.update({
        "sim.memory.probes_per_op": sum(probes) / ops,
        "sim.memory.probes_per_op.q4_over_q1": quarter_ratio(
            probes, [ops for r in rounds for ops in r.replays]
        ),
        "sim.memory.freed_ratio": (
            calls.get("AddressSpace.free", 0)
            / max(calls.get("AddressSpace.alloc", 0), 1)
        ),
        # Data-access checks: every probe makes exactly one check call.
        "sim.memory.check_calls": (
            calls.get("AddressSpace.check", 0) - calls.get(PROBE, 0)
        ) / ops,
        "sim.kernel.spawns": calls.get("SimKernel.spawn", 0) / ops,
        "core.statemachine.transitions_per_op": values.get("transitions", 0) / ops,
        "core.runtime.dispatch_hit_ratio": (
            values.get("dispatch_hits", 0) / lookups if lookups else 0.0
        ),
        "core.agent.restarts": calls.get("AgentProcess.restart", 0),
        "serve.admission.depth_max": values.get("depth_max", 0),
        "serve.admission.wait_virt_ms": (
            values.get("wait_ns", 0) / values["dispatched"] / 1e6
            if values.get("dispatched") else 0.0
        ),
        "obs.spans": sum(
            calls.get(f"SpanTracer.{name}", 0)
            for name in ("span", "add_span", "instant")
        ) / ops,
        "trace.overhead_ratio": (
            sum(r.wall_ns for r in rounds) / len(rounds)
            / untraced_base.wall_ns
        ),
        "trace.ops": ops,
    })
    metrics.update(rounds[-1].counters)
    for key, value in reference.results.items():
        if key.startswith("virt_"):
            metrics[key] = value

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(
        os.path.join(OUT_DIR, f"{workload.name}-seed{runner.seed}.spans.json"),
        {"workload": workload.name, "seed": runner.seed,
         "rollup_ms_per_op": tracer.self_ms_per_op()},
    )
    counts = {
        name: value for name, value in metrics.items()
        if name in PER_LAYER_UNITS and name not in HOST_TIMED
        and not name.endswith(".self_ms")
    }
    print(
        f"{workload.name} seed={runner.seed} traced_rounds={len(rounds)} "
        f"ops={ops} spans={len(tracer.spans)} "
        f"dropped_spans={tracer.dropped_spans} "
        f"input_digest={runner.input_digest} "
        f"counts_digest={digest_of(counts)}"
    )
    for name in PER_LAYER_UNITS:
        print(f"  {name} = {metrics[name]:.6g} {PER_LAYER_UNITS[name]}")
    return rounds, {name: metrics[name] for name in PER_LAYER_UNITS}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    from perfbench.layertrace import RollupError
    from perfbench.workloads import WORKLOADS, CheckFailed
    from repro.errors import AccountingError

    from perfbench.hostspeed import scaled, calibration_ns

    import_ns = time.perf_counter_ns() - _STARTED_NS
    sample = calibration_ns()
    import_ns = scaled(import_ns, sample, sample)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r} "
              f"(expected one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    runner = Runner(WORKLOADS[args.workload](), args.seed)
    measure = traced if args.trace else untraced
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    try:
        rounds, metrics = measure(runner, args.seconds, import_ns)
    except (CheckFailed, RollupError, AccountingError) as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
