"""Command-line interface: drive the reproduction's experiments.

::

    python -m repro apps                         # Table 6 roster
    python -m repro categorize opencv            # hybrid-analysis verdicts
    python -m repro syscalls                     # Table 7 allowlists
    python -m repro overhead --samples 1,8,16    # Fig. 13 rows
    python -m repro attack CVE-2017-12597        # one exploit, both modes
    python -m repro motivating --technique none  # Table 1 row
    python -m repro studies                      # Table 3 + Fig. 7
    python -m repro serve-bench --tenants 8      # serving throughput JSON
    python -m repro loadgen --profile burst      # open-loop traffic replay
    python -m repro check examples/              # static partition linter
    python -m repro trace drone --out trace.json # Chrome-trace span export
    python -m repro chaos 8 --seed 11 --campaign 50   # fault injection
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence


class CliUsageError(Exception):
    """Bad command-line input: reported as a usage message, exit 2."""


def _require_positive(*flags) -> None:
    """Usage error unless every ``(flag, value)`` pair has value >= 1."""
    for flag, value in flags:
        if value < 1:
            raise CliUsageError(f"{flag} must be >= 1, got {value}")


def _require_rate(rate: float) -> None:
    if rate < 0:
        raise CliUsageError(f"--fault-rate must be >= 0, got {rate}")


def _require_profile(profile: str) -> None:
    from repro.serve.loadgen import PROFILE_NAMES

    if profile not in PROFILE_NAMES:
        raise CliUsageError(
            f"unknown --profile {profile!r} "
            f"(expected one of: {', '.join(PROFILE_NAMES)})"
        )


def _target_settings(target: str, args: argparse.Namespace):
    """The ChaosSettings a command's flags give runs of ``target``."""
    from repro.faults.campaign import ChaosSettings

    flags = {
        name: getattr(args, name)
        for name in ("seed", "campaign", "fault_rate", "nodes", "profile")
        if hasattr(args, name)
    }
    return ChaosSettings(
        target=target, items=args.items, image_size=args.image_size,
        **flags,
    )


def _cmd_apps(args: argparse.Namespace) -> int:
    from repro.apps.suite import SAMPLE_IDS, make_app
    from repro.bench.tables import render_table
    from repro.core.apitypes import APIType

    rows = []
    for sample_id in SAMPLE_IDS:
        app = make_app(sample_id)
        counts = app.schedule_counts()

        def cell(api_type):
            got = counts.get(api_type)
            return f"{got.unique}/{got.total}" if got else "0/0"

        rows.append([
            sample_id, app.spec.name, app.spec.main_framework,
            cell(APIType.LOADING), cell(APIType.PROCESSING),
            cell(APIType.VISUALIZING), cell(APIType.STORING),
            app.spec.description,
        ])
    print(render_table(
        "Evaluation applications (Table 6)",
        ["id", "name", "framework", "load", "proc", "vis", "store",
         "description"],
        rows,
    ))
    return 0


def _cmd_categorize(args: argparse.Namespace) -> int:
    from repro.bench.tables import render_table
    from repro.core.hybrid import HybridAnalyzer
    from repro.frameworks.registry import get_framework

    framework = get_framework(args.framework)
    categorization = HybridAnalyzer().categorize_framework(framework)
    if args.verbose:
        rows = [
            [e.qualname, e.api_type.value, e.method,
             "neutral" if e.neutral else ""]
            for e in categorization.entries.values()
        ]
        print(render_table(
            f"Hybrid categorization of {framework.name}",
            ["API", "type", "method", ""],
            rows,
        ))
    counts = categorization.counts_by_type()
    summary = [[t.value, n] for t, n in counts.items() if n]
    summary.append(["accuracy", f"{categorization.accuracy() * 100:.1f}%"])
    print(render_table(
        f"{framework.name}: {len(categorization)} APIs categorized",
        ["type", "count"], summary,
    ))
    return 0


def _cmd_syscalls(args: argparse.Namespace) -> int:
    from repro.core.policy import policy_report

    report = policy_report()
    for row in report.format_rows():
        print(row)
    return 0


def _parse_samples(text: Optional[str]) -> Sequence[int]:
    from repro.apps.suite import SAMPLE_IDS

    if not text:
        return SAMPLE_IDS
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise CliUsageError(
            f"--samples must be comma-separated integers, got {text!r}"
        ) from None


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.apps.base import Workload
    from repro.bench.runner import average_overhead, overhead_sweep
    from repro.bench.tables import render_table
    from repro.core.runtime import FreePartConfig

    workload = Workload(items=args.items, image_size=args.image_size)
    config = FreePartConfig(ldc=not args.no_ldc)
    rows = overhead_sweep(_parse_samples(args.samples), workload=workload,
                          config=config)
    table = [[r.sample_id, r.app_name, f"{r.overhead_percent:.2f}%"]
             for r in rows]
    table.append(["-", "AVERAGE", f"{average_overhead(rows):.2f}%"])
    print(render_table(
        "FreePart runtime overhead (Fig. 13)"
        + (" — lazy data copy DISABLED" if args.no_ldc else ""),
        ["id", "application", "overhead"], table,
    ))
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.attacks.scenarios import run_attack
    from repro.bench.tables import render_table

    techniques = (
        [args.technique] if args.technique else ["none", "freepart"]
    )
    rows = []
    for technique in techniques:
        result = run_attack(args.cve, technique=technique,
                            sample_id=args.sample)
        rows.append([
            technique, result.app_name, result.vuln_type.value,
            "prevented" if result.prevented else "SUCCEEDED",
            "/".join(result.blocked_by) or "-",
        ])
    print(render_table(
        f"Attack: {args.cve}",
        ["technique", "app", "class", "outcome", "blocked by"],
        rows,
    ))
    return 0


def _cmd_motivating(args: argparse.Namespace) -> int:
    from repro.attacks.scenarios import run_motivating_example
    from repro.bench.tables import render_table

    verdict = run_motivating_example(args.technique)
    rows = [
        [label, "prevented" if result.prevented else "FAILED",
         "/".join(result.blocked_by) or "-"]
        for label, result in verdict.attacks.items()
    ]
    print(render_table(
        f"Motivating example under {args.technique!r} (Table 1 row)",
        ["attack", "outcome", "blocked by"], rows,
    ))
    return 0


def _cmd_studies(args: argparse.Namespace) -> int:
    from repro.analysis import (
        build_cve_corpus,
        build_usage_corpus,
        counts_by_api_type,
        framework_totals,
        table3_totals,
    )
    from repro.bench.tables import render_table
    from repro.core.apitypes import APIType

    cves = build_cve_corpus()
    print(render_table(
        "Study 2 — 241 CVEs",
        ["framework", "CVEs"],
        sorted(framework_totals(cves).items(), key=lambda kv: -kv[1]),
    ))
    print()
    print(render_table(
        "Study 2 — CVEs by pipeline task",
        ["task", "CVEs"],
        [[t.value, n] for t, n in counts_by_api_type(cves).items() if n],
    ))
    print()
    totals = table3_totals(build_usage_corpus())
    print(render_table(
        "Study 1 — vulnerable APIs per app (Table 3 totals: avg/max/distinct)",
        ["type", "avg", "max", "distinct"],
        [[t.value, f"{c.average:.1f}", c.maximum, c.total_distinct]
         for t, c in totals.items()],
    ))
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import json

    from repro.serve.bench import best_pooled, run_serving_benchmark

    for flag, value in (("--tenants", args.tenants),
                        ("--requests", args.requests),
                        ("--pool-size", args.pool_size),
                        ("--image-size", args.image_size)):
        if value < 1:
            print(f"repro serve-bench: error: {flag} must be >= 1, "
                  f"got {value}", file=sys.stderr)
            return 2
    batching_modes = {
        "on": (True,), "off": (False,), "both": (False, True),
    }[args.batching]
    result = run_serving_benchmark(
        tenants=args.tenants,
        requests_per_tenant=args.requests,
        pool_sizes=(args.pool_size,),
        batching_modes=batching_modes,
        image_size=args.image_size,
    )
    result["best_pooled"] = best_pooled(result)["name"]
    print(json.dumps(result, indent=2))
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.bench.tables import render_table
    from repro.serve.loadbench import (
        BUDGET_NS,
        canonical_profile,
        run_cluster_profile,
        run_profile,
    )
    from repro.serve.loadgen import generate_schedule

    _require_profile(args.profile)
    _require_positive(("--min-pool", args.min_pool),
                      ("--max-pool", args.max_pool),
                      ("--tenants", args.tenants),
                      ("--nodes", args.nodes))
    if args.max_pool < args.min_pool:
        raise CliUsageError(
            f"--max-pool ({args.max_pool}) must be >= --min-pool "
            f"({args.min_pool})"
        )
    _require_rate(args.fault_rate)
    if args.base_rps <= 0:
        raise CliUsageError(
            f"--base-rps must be > 0, got {args.base_rps}"
        )
    if args.duration_ms <= 0:
        raise CliUsageError(
            f"--duration-ms must be > 0, got {args.duration_ms}"
        )

    profile = canonical_profile(
        args.profile,
        base_rps=args.base_rps,
        duration_ns=int(args.duration_ms * 1e6),
    )
    schedule = generate_schedule(
        profile, seed=args.seed,
        tenants=args.tenants, zipf_alpha=args.zipf_alpha,
    )
    if args.schedule_only:
        payload = {"params": profile.to_dict(), **schedule.to_dict()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.cluster:
        result = run_cluster_profile(
            args.profile, seed=args.seed, nodes=args.nodes,
            elastic=not args.fixed, fault_rate=args.fault_rate,
            schedule=schedule,
            pool_size=args.min_pool, max_pool=args.max_pool,
        )
    else:
        result = run_profile(
            args.profile, seed=args.seed, elastic=not args.fixed,
            fault_rate=args.fault_rate, schedule=schedule,
            pool_size=args.min_pool, max_pool=args.max_pool,
        )
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    rows = [[key, result[key]] for key in (
        "offered", "admitted", "rejected", "shed",
        "served_ok", "served_failed", "slo_alerts",
    )]
    rows.append(["goodput", f"{result['goodput']:.3f}"])
    rows.append(["p99 ms", f"{result['p99_latency_ms']:.2f}"])
    rows.append(["pool size", result.get(
        "pool_size",
        "/".join(str(n["pool_size"])
                 for n in result.get("per_node", {}).values()),
    )])
    if not args.fixed:
        rows.append(["scale ups", result.get("scale_ups", 0)])
    if result["sheds_by_priority"]:
        rows.append(["sheds", ", ".join(
            f"{name}={count}"
            for name, count in result["sheds_by_priority"].items()
        )])
    mode = "elastic" if not args.fixed else "fixed"
    where = f"{args.nodes}-node cluster" if args.cluster else "1 node"
    print(render_table(
        f"Open-loop {args.profile} — {mode}, {where}, "
        f"{BUDGET_NS / 1e6:.0f} ms budget",
        ["fact", "value"],
        rows,
        note=f"schedule {result['schedule_digest'][:16]} "
             f"seed={args.seed}",
    ))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.faults.campaign import target_kind, traced_run
    from repro.obs.export import render_rollup, render_tree, to_chrome_trace

    _require_positive(("--items", args.items),
                      ("--image-size", args.image_size))
    if target_kind(args.target) not in ("app", "cve", "serve-bench"):
        raise CliUsageError(
            f"unknown trace target {args.target!r} (expected a sample id, "
            "'drone', 'serve-bench', or a CVE id)"
        )
    run = traced_run(args.target, _target_settings(args.target, args))
    kernel = getattr(run, "kernel", run)
    tracer = kernel.tracer
    total_ns = kernel.clock.now_ns
    if args.out:
        payload = to_chrome_trace(tracer)
        with open(args.out, "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True))
            fh.write("\n")
        print(
            f"wrote {len(payload['traceEvents'])} trace events to "
            f"{args.out} (load at ui.perfetto.dev)"
        )
    if args.tree:
        print(render_tree(tracer))
    if args.rollup or not (args.out or args.tree):
        print(render_rollup(tracer, total_ns))
    return 0


def _report_cluster_run(args: argparse.Namespace):
    """The clean sharded workload on ``--nodes`` nodes, tracing on.

    Unlike the chaos ``cluster`` target (at least two nodes, so a node
    failure has a survivor), a report runs exactly the width asked for.
    """
    from repro.cluster.bench import serve_sharded_workload
    from repro.cluster.kernel import ClusterKernel

    cluster = ClusterKernel(nodes=args.nodes)
    cluster.enable_tracing()
    server, _, _ = serve_sharded_workload(
        cluster, 2 * args.nodes, args.items, args.image_size
    )
    server.shutdown()
    return server


def _report_inputs(server):
    """A finished ``PipelineServer`` or ``ClusterServer`` -> the report's
    ``(nodes, events, series, overload)``.

    ``overload`` surfaces each node server's pressure counters —
    brownout sheds, admission rejections, transient-ChannelFull backoff
    retries — and, when the elastic controllers are armed, their
    end-of-run posture.
    """
    from repro.obs.timeseries import TimeSeriesRegistry

    if hasattr(server, "servers"):
        servers = [(f"node{index}", node_server)
                   for index, node_server in sorted(server.servers.items())]
        series = TimeSeriesRegistry.merged(
            node.kernel.series for node in server.cluster.nodes
        )
    else:
        servers = [("node0", server)]
        series = server.kernel.series
    nodes = [(label, node_server.kernel.tracer,
              node_server.kernel.clock.now_ns)
             for label, node_server in servers]
    events = [event for _, node_server in servers
              for event in node_server.events]
    rows = []
    for label, node_server in servers:
        stats = node_server.stats()
        admission = stats["admission"]
        row = {
            "node": label,
            "pool_size": stats["pool_size"],
            "shed": admission["shed"],
            "rejected": (
                admission["rejected_capacity"]
                + admission["rejected_tenant_budget"]
            ),
            "timed_out": admission["timed_out"],
            "send_backoff_retries": stats["send_backoff_retries"],
            "degraded_responses": stats["degraded_responses"],
        }
        if node_server.autoscaler is not None:
            row["scale_ups"] = node_server.autoscaler.scale_ups
            row["scale_downs"] = node_server.autoscaler.scale_downs
        if node_server.brownout is not None:
            row["brownout_floor"] = node_server.brownout.floor
        rows.append(row)
    return nodes, events, series, {"nodes": rows}


#: Report mode of each report-only target name.
_REPORT_MODES = {
    "serve-bench": "serve", "cluster-bench": "cluster", "chaos": "chaos",
}


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.faults.campaign import slo_sweep, target_kind, traced_run
    from repro.obs.report import (
        build_report,
        render_report_json,
        render_report_markdown,
    )

    _require_positive(("--items", args.items),
                      ("--image-size", args.image_size),
                      ("--nodes", args.nodes),
                      ("--campaign", args.campaign))
    _require_rate(args.fault_rate)
    mode = _REPORT_MODES.get(args.target)
    if mode is None and target_kind(args.target) == "app":
        mode = "app"
    if mode is None:
        raise CliUsageError(
            f"unknown report target {args.target!r} (expected a sample "
            "id, 'drone', 'serve-bench', 'cluster-bench', or 'chaos')"
        )

    extra = None
    if mode == "app":
        kernel = traced_run(args.target, _target_settings(args.target, args))
        nodes = [("node0", kernel.tracer, kernel.clock.now_ns)]
        events = []
        series = kernel.series
    else:
        # A chaos report's body is the clean traced run of the swept
        # workload; the faulted sweep's per-schedule SLO verdicts ride
        # in `extra`.
        workload = args.chaos_target if mode == "chaos" else args.target
        if workload == "serve-bench":
            server = traced_run(workload, _target_settings(workload, args))
        else:
            server = _report_cluster_run(args)
        nodes, events, series, overload = _report_inputs(server)
        extra = {"overload": overload}
        if mode == "chaos":
            extra["chaos"] = slo_sweep(_target_settings(workload, args))

    report = build_report(
        args.target, mode, nodes=nodes, events=events, series=series,
        extra=extra,
    )
    payload = render_report_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote report JSON to {args.out}")
    if args.md:
        with open(args.md, "w", encoding="utf-8") as handle:
            handle.write(render_report_markdown(report))
        print(f"wrote report markdown to {args.md}")
    if not args.out and not args.md:
        print(payload, end="")
    alert_count = report["slo"]["alert_count"]
    if args.fail_on_alerts and alert_count > 0:
        print(
            f"repro report: {alert_count} burn-rate alert(s) fired",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.bench.tables import render_table
    from repro.faults.campaign import run_campaign

    _require_positive(("--campaign", args.campaign),
                      ("--items", args.items),
                      ("--image-size", args.image_size))
    _require_rate(args.fault_rate)
    _require_positive(("--nodes", args.nodes))
    if args.target == "loadgen":
        _require_profile(args.profile)
    settings = _target_settings(args.target, args)
    try:
        report = run_campaign(settings)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None
    if args.json:
        payload = report.to_dict()
        payload["digest"] = report.digest()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = []
        for schedule in report.schedules:
            held = [name for name, ok in sorted(schedule.invariants.items())
                    if not ok]
            rows.append([
                schedule.index,
                sum(schedule.injected.values()),
                "ok" if schedule.ok else "failed-clean",
                "PASS" if schedule.passed else "FAIL:" + ",".join(held),
                schedule.restarts,
            ])
        print(render_table(
            f"Chaos campaign — {settings.target} seed={settings.seed} "
            f"rate={settings.fault_rate}",
            ["schedule", "faults", "run", "invariants", "restarts"],
            rows,
            note=f"{report.faults_injected} faults over "
                 f"{settings.campaign} schedules; "
                 f"digest {report.digest()[:16]}",
        ))
    return 0 if report.passed else 1


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench.tables import render_table
    from repro.cluster.bench import run_cluster_benchmark

    _require_positive(("--nodes", args.nodes),
                      ("--tenants", args.tenants),
                      ("--requests", args.requests),
                      ("--pool-size", args.pool_size),
                      ("--image-size", args.image_size))
    try:
        result = run_cluster_benchmark(
            nodes=args.nodes,
            tenants=args.tenants,
            requests_per_tenant=args.requests,
            pool_size=args.pool_size,
            partitioner=args.partitioner,
            image_size=args.image_size,
            failure=not args.no_failure,
        )
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    rows = [
        [
            config["name"],
            config["requests"],
            config["ok"],
            f"{config['goodput']:.3f}",
            f"{config['requests_per_second']:.1f}",
            config["node_failures"],
            config["shards_replaced"],
            config["cross_node_derefs"],
        ]
        for config in result["configs"]
    ]
    workload = result["workload"]
    print(render_table(
        f"Cluster scaling — {workload['partitioner']} partitioner, "
        f"{workload['shards']} shards",
        ["config", "requests", "ok", "goodput", "req/s",
         "node failures", "shards re-placed", "x-node derefs"],
        rows,
        note=f"scaling {result['scaling']}x vs 1 node; "
             f"manifest {workload['manifest_digest'][:16]}",
    ))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.bench.perf import BENCH_NAMES, run_gate

    if args.tolerance < 0:
        raise CliUsageError(
            f"--tolerance must be >= 0, got {args.tolerance}"
        )
    which = BENCH_NAMES if args.which == "all" else (args.which,)
    if args.baseline is not None and not os.path.isdir(args.baseline):
        raise CliUsageError(
            f"--baseline directory does not exist: {args.baseline!r}"
        )
    try:
        payloads, regressions = run_gate(
            which,
            baseline_dir=args.baseline,
            out_dir=args.out,
            tolerance=args.tolerance,
        )
    except (ValueError, FileNotFoundError) as exc:
        raise CliUsageError(str(exc)) from None
    if args.json:
        combined = {p["bench"]: p for p in payloads}
        print(json.dumps(combined, indent=2, sort_keys=True))
    else:
        for payload in payloads:
            print(f"[{payload['bench']}]")
            for name, entry in sorted(payload["metrics"].items()):
                print(f"  {name} = {entry['value']} "
                      f"({entry['direction']} is better)")
    if regressions:
        for regression in regressions:
            print(f"REGRESSION: {regression.describe()}", file=sys.stderr)
        return 1
    if args.baseline is not None:
        print(f"perf gate passed ({len(which)} bench(es), "
              f"tolerance {args.tolerance:.0%})")
    return 0


def _check_app_targets(targets):
    """Resolve ``--app`` values to Application instances."""
    from repro.apps.suite import all_apps, app_for_target, is_app_target

    apps = []
    for target in targets:
        if target == "all":
            apps.extend(all_apps())
        elif is_app_target(target):
            apps.append(app_for_target(target))
        else:
            raise CliUsageError(
                f"unknown --app target {target!r} (expected a sample id, "
                "'drone', or 'all')"
            )
    return apps


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    from repro.staticcheck import render_json, render_text, run_check
    from repro.staticcheck.parity import (
        check_trace_parity,
        merge_universes,
        universe_from_app,
        universe_from_paths,
    )
    from repro.staticcheck.privileges import (
        merge_privileges,
        privileges_for_app,
        render_minimal_pools,
    )

    if not args.paths and not args.app:
        raise CliUsageError(
            "nothing to check: give source paths and/or --app targets"
        )
    apps = _check_app_targets(args.app or [])
    try:
        result = run_check(args.paths, strict_pools=args.strict_pools)
    except FileNotFoundError as exc:
        raise CliUsageError(f"no such file or directory: {exc.args[0]}") \
            from None
    privileges = merge_privileges(
        [result.privileges]
        + [privileges_for_app(app) for app in apps]
    )

    if args.against_trace:
        try:
            with open(args.against_trace, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise CliUsageError(
                f"no such trace file: {args.against_trace!r}"
            ) from None
        except json.JSONDecodeError as exc:
            raise CliUsageError(
                f"not a Chrome trace JSON file: {args.against_trace!r} "
                f"({exc})"
            ) from None
        universe = merge_universes(
            [universe_from_paths(args.paths)]
            + [universe_from_app(app) for app in apps]
        )
        result.findings.extend(
            check_trace_parity(universe, payload, args.against_trace)
        )
        result.findings.sort(key=lambda finding: finding.sort_key())

    if args.emit_minimal_pools:
        # Machine-readable pools on stdout (pipe into a file and load
        # them as FreePartConfig.filter_overrides); findings still
        # drive the exit code but go to stderr so stdout stays JSON.
        print(render_minimal_pools(privileges))
        if result.findings:
            print(render_text(result), file=sys.stderr)
        return result.exit_code

    renderer = render_json if args.format == "json" else render_text
    print(renderer(result))
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FreePart reproduction — experiment driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list the 23 evaluation applications")

    p = sub.add_parser("categorize", help="hybrid-categorize a framework")
    p.add_argument("framework")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print every API's verdict")

    sub.add_parser("syscalls", help="Table 7 per-type allowlists")

    p = sub.add_parser("overhead", help="Fig. 13 overhead rows")
    p.add_argument("--samples", help="comma-separated sample ids (default all)")
    p.add_argument("--items", type=int, default=2)
    p.add_argument("--image-size", type=int, default=16)
    p.add_argument("--no-ldc", action="store_true",
                   help="disable lazy data copy (Section 5.2 ablation)")

    p = sub.add_parser("attack", help="run one CVE's exploit")
    p.add_argument("cve")
    p.add_argument("--technique",
                   help="one technique (default: none AND freepart)")
    p.add_argument("--sample", type=int, default=None)

    p = sub.add_parser("motivating",
                       help="the Section 3 attacks under one technique")
    p.add_argument("--technique", default="freepart")

    sub.add_parser("studies", help="Study 1 + Study 2 aggregates")

    p = sub.add_parser(
        "serve-bench",
        help="serving throughput: pooled+batched vs runtime-per-request",
    )
    p.add_argument("--tenants", type=int, default=8,
                   help="concurrent tenants (default 8)")
    p.add_argument("--requests", type=int, default=2,
                   help="requests per tenant (default 2)")
    p.add_argument("--pool-size", type=int, default=4,
                   help="agents per API type in the pooled config (default 4)")
    p.add_argument("--batching", choices=["on", "off", "both"],
                   default="both",
                   help="RPC batching mode(s) to measure (default both)")
    p.add_argument("--image-size", type=int, default=16)

    p = sub.add_parser(
        "loadgen",
        help="seeded open-loop traffic: replay a load profile against "
             "a fixed or autoscaled server (or cluster)",
    )
    p.add_argument("--profile", default="burst",
                   help="arrival profile: diurnal, burst, or flash "
                        "(default burst)")
    p.add_argument("--seed", type=int, default=42,
                   help="schedule seed (default 42)")
    p.add_argument("--base-rps", type=float, default=300.0,
                   help="baseline offered rate (default 300)")
    p.add_argument("--duration-ms", type=float, default=200.0,
                   help="schedule length in virtual ms (default 200)")
    p.add_argument("--tenants", type=int, default=60,
                   help="Zipf tenant population size (default 60)")
    p.add_argument("--zipf-alpha", type=float, default=0.5,
                   help="tenant popularity skew (default 0.5)")
    p.add_argument("--fixed", action="store_true",
                   help="disable the autoscaler and brownout controller "
                        "(static --min-pool lanes)")
    p.add_argument("--min-pool", type=int, default=2,
                   help="starting/minimum agents per API type (default 2)")
    p.add_argument("--max-pool", type=int, default=8,
                   help="autoscaler ceiling (default 8)")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="per-decision fault probability (default 0)")
    p.add_argument("--cluster", action="store_true",
                   help="replay against a multi-node cluster (tenants "
                        "hash across nodes; per-node autoscalers)")
    p.add_argument("--nodes", type=int, default=3,
                   help="cluster width with --cluster (default 3)")
    p.add_argument("--schedule-only", action="store_true",
                   help="print the schedule digest and counts without "
                        "replaying it")
    p.add_argument("--json", action="store_true",
                   help="print the run facts as JSON")

    p = sub.add_parser(
        "trace",
        help="span-trace one run; export Chrome trace JSON / rollup",
    )
    p.add_argument("target",
                   help="sample id, 'drone', 'serve-bench', or a CVE id")
    p.add_argument("--out", help="write Chrome trace-event JSON here")
    p.add_argument("--rollup", action="store_true",
                   help="print the per-mechanism virtual-time rollup")
    p.add_argument("--tree", action="store_true",
                   help="print the span tree")
    p.add_argument("--items", type=int, default=2)
    p.add_argument("--image-size", type=int, default=16)

    p = sub.add_parser(
        "report",
        help="unified run report: SLO verdicts, burn-rate alerts, "
             "critical path, verified rollup, top-k slowest",
    )
    p.add_argument("target",
                   help="sample id, 'drone', 'serve-bench', "
                        "'cluster-bench', or 'chaos'")
    p.add_argument("--out", help="write the report JSON artifact here")
    p.add_argument("--md", help="write the markdown rendering here")
    p.add_argument("--items", type=int, default=2)
    p.add_argument("--image-size", type=int, default=16)
    p.add_argument("--nodes", type=int, default=4,
                   help="cluster width for 'cluster-bench' (default 4)")
    p.add_argument("--seed", type=int, default=11,
                   help="chaos sweep seed (default 11)")
    p.add_argument("--campaign", type=int, default=5,
                   help="faulted schedules in the chaos sweep (default 5)")
    p.add_argument("--fault-rate", type=float, default=0.2,
                   help="chaos per-decision fault probability "
                        "(default 0.2 — high enough that some schedule "
                        "exhausts its retries and trips a burn-rate "
                        "alert)")
    p.add_argument("--chaos-target",
                   choices=["serve-bench", "cluster"],
                   default="serve-bench",
                   help="workload the 'chaos' report sweeps "
                        "(default serve-bench)")
    p.add_argument("--fail-on-alerts", action="store_true",
                   help="exit 1 if any burn-rate alert fired on the "
                        "report's top-level (clean) run")

    p = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign + recovery invariant checks",
    )
    p.add_argument("target",
                   help="sample id, 'drone', 'serve-bench', 'loadgen', "
                        "'cluster', or a CVE id")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default 0)")
    p.add_argument("--campaign", type=int, default=20,
                   help="number of faulted schedules (default 20)")
    p.add_argument("--fault-rate", type=float, default=0.02,
                   help="per-decision fault probability (default 0.02)")
    p.add_argument("--items", type=int, default=2)
    p.add_argument("--image-size", type=int, default=16)
    p.add_argument("--nodes", type=int, default=3,
                   help="cluster width for the 'cluster' target "
                        "(default 3; other targets ignore it)")
    p.add_argument("--profile", default="burst",
                   help="load profile for the 'loadgen' target "
                        "(default burst; other targets ignore it)")
    p.add_argument("--json", action="store_true",
                   help="print the full campaign report as JSON")

    p = sub.add_parser(
        "cluster-bench",
        help="multi-node scaling: sharded serving at N nodes vs one, "
             "plus goodput under a node failure",
    )
    p.add_argument("--nodes", type=int, default=4,
                   help="cluster width for the scaled config (default 4)")
    p.add_argument("--tenants", type=int, default=8,
                   help="concurrent tenants (default 8)")
    p.add_argument("--requests", type=int, default=2,
                   help="requests per tenant (default 2)")
    p.add_argument("--pool-size", type=int, default=2,
                   help="agents per API type per node (default 2)")
    p.add_argument("--partitioner", default="directory",
                   help="dataset partitioner: 'directory', 'object[:N]', "
                        "or 'hash[:K]' (default directory)")
    p.add_argument("--image-size", type=int, default=16)
    p.add_argument("--no-failure", action="store_true",
                   help="skip the scripted single-node-failure config")
    p.add_argument("--json", action="store_true",
                   help="print the full result as JSON")

    p = sub.add_parser(
        "bench",
        help="perf trajectory: measure BENCH_*.json payloads and gate "
             "against committed baselines",
    )
    p.add_argument("--which",
                   choices=["table9", "serve", "ldc", "cluster",
                            "staticcheck", "obs_report", "loadgen",
                            "all"],
                   default="all",
                   help="which bench payload(s) to measure (default all)")
    p.add_argument("--json", action="store_true",
                   help="print the payload(s) as JSON")
    p.add_argument("--out",
                   help="write BENCH_<which>.json file(s) into this directory")
    p.add_argument("--baseline",
                   help="directory holding baseline BENCH_*.json files; "
                        "exit 1 on >tolerance regression")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="relative regression tolerance (default 0.05)")

    p = sub.add_parser(
        "check",
        help="static partition linter over host-program source",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories to check")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (default text)")
    p.add_argument("--app", action="append", metavar="TARGET",
                   help="also analyze a catalog app's declarative "
                        "schedule (a sample id, 'drone', or 'all'; "
                        "repeatable)")
    p.add_argument("--strict-pools", action="store_true",
                   help="enable advisory over-privileged-pool findings")
    p.add_argument("--emit-minimal-pools", action="store_true",
                   help="print the inferred minimal per-agent filter "
                        "specs as JSON instead of the findings report")
    p.add_argument("--against-trace", metavar="TRACE_JSON",
                   help="parity-gate a recorded Chrome trace: fail if "
                        "the runtime touched any API, syscall, or "
                        "partition edge static analysis deemed "
                        "unreachable")
    return parser


_HANDLERS = {
    "apps": _cmd_apps,
    "categorize": _cmd_categorize,
    "syscalls": _cmd_syscalls,
    "overhead": _cmd_overhead,
    "attack": _cmd_attack,
    "motivating": _cmd_motivating,
    "studies": _cmd_studies,
    "serve-bench": _cmd_serve_bench,
    "loadgen": _cmd_loadgen,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "chaos": _cmd_chaos,
    "cluster-bench": _cmd_cluster_bench,
    "bench": _cmd_bench,
    "check": _cmd_check,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Unknown subcommands and malformed flag values exit 2 with a usage
    message on stderr (argparse handles unknown commands and un-parseable
    flags itself; domain errors — bad sample lists, unknown frameworks,
    CVEs, or techniques — are caught here).
    """
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CliUsageError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # Lookup-style domain errors (e.g. an unknown CVE id).
        print(f"repro {args.command}: error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
