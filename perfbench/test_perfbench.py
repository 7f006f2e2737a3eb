"""Tests of the benchmark itself: rollup arithmetic, wrapper lifetime,
seeded inputs, and that every correctness check fires on a planted miscount.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import sys
import types
from types import SimpleNamespace

import pytest

from perfbench import run
from perfbench.layertrace import (
    LAYERS,
    Layer,
    LayerTracer,
    RollupError,
    assert_unwrapped,
)
from perfbench.stats import quarter_ratio, samples_for, tail
from perfbench.workloads import (
    AppSuite,
    CheckFailed,
    ClusterBurst,
    Lint,
    Round,
    ServeSteady,
    _check_serving,
    check_app_pair,
    check_lint_file,
)
from repro.core.runtime import RunReport
from repro.errors import AccountingError
from repro.serve.loadgen import LoadgenResult
from repro.staticcheck.report import Finding, Severity

# ----------------------------------------------------------------------
# Span self-time arithmetic
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, ns):
        self.now += ns


@pytest.fixture
def synthetic():
    """A throwaway module with two nested 'layers' driven by a fake clock."""
    clock = FakeClock()
    module = types.ModuleType("perfbench_synthetic")

    class Inner:
        def step(self):
            clock.tick(3)

    class Outer:
        def run(self, inner):
            clock.tick(5)
            inner.step()
            inner.step()
            clock.tick(2)

    Inner.__module__ = Outer.__module__ = module.__name__
    module.Inner, module.Outer = Inner, Outer
    sys.modules[module.__name__] = module
    layers = (
        Layer("outer", ((module.__name__, "Outer"),)),
        Layer("inner", ((module.__name__, "Inner"),)),
    )
    yield clock, module, layers
    del sys.modules[module.__name__]


def test_self_time_of_nested_spans(synthetic):
    clock, module, layers = synthetic
    tracer = LayerTracer(layers=layers, clock=clock)
    with tracer:
        tracer.begin_op()
        module.Outer().run(module.Inner())
        clock.tick(1)
        tracer.end_op()
    # Outer: 13 ns long, 6 ns inside two 3 ns Inner calls -> 7 ns self.
    assert tracer.self_ns == {"outer": 7, "inner": 6}
    assert tracer.op_ns == 14
    assert tracer.op_unattributed_ns == 1
    assert tracer.op_self_ns == {"outer": 7, "inner": 6}
    spans = {name: (start, end, span_id, parent)
             for _, span_id, parent, name, start, end in tracer.spans
             if name != "Inner.step"}
    op = spans["op"]
    outer = spans["Outer.run"]
    assert (outer[0], outer[1]) == (0, 13) and outer[3] == op[2]
    inner = [s for s in tracer.spans if s[3] == "Inner.step"]
    assert [(s[4], s[5]) for s in inner] == [(5, 8), (8, 11)]
    assert all(s[2] == outer[2] for s in inner)
    assert tracer.self_ms_per_op()["unattributed.self_ms"] == 1e-6


def test_rollup_fails_on_a_planted_miscount(synthetic):
    clock, module, layers = synthetic
    tracer = LayerTracer(layers=layers, clock=clock)
    with tracer:
        tracer.begin_op()
        module.Outer().run(module.Inner())
        tracer.self_ns["inner"] += 1
        with pytest.raises(RollupError):
            tracer.end_op()


def test_rollup_fails_on_an_unbalanced_op(synthetic):
    clock, _, layers = synthetic
    tracer = LayerTracer(layers=layers, clock=clock)
    with pytest.raises(RollupError):
        tracer.end_op()
    tracer.begin_op()
    with pytest.raises(RollupError):
        tracer.begin_op()


# ----------------------------------------------------------------------
# Wrapper lifetime
# ----------------------------------------------------------------------


def _layer_attributes():
    import importlib

    snapshot = {}
    for layer in LAYERS:
        for module_name, attr in layer.targets:
            module = importlib.import_module(module_name)
            target = getattr(module, attr.partition(".")[0])
            if isinstance(target, type):
                for cls in [target] + target.__subclasses__():
                    snapshot[cls] = dict(vars(cls))
            else:
                snapshot[(module, attr)] = target
    return snapshot


def test_wrappers_restored_after_a_traced_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    before = _layer_attributes()
    lint = Lint()
    lint.FILES = 8
    runner = run.Runner(lint, seed=3)
    rounds, metrics = run.traced(runner, 1.0, 0)
    assert_unwrapped()
    assert _layer_attributes() == before
    assert metrics["trace.ops"] == 8
    assert metrics["staticcheck.callgraph.self_ms"] > 0
    assert metrics["sim.memory.self_ms"] == 0
    assert (tmp_path / "lint-seed3.spans.json").exists()


def test_assert_unwrapped_sees_installed_wrappers():
    tracer = LayerTracer()
    with tracer:
        with pytest.raises(RuntimeError):
            assert_unwrapped()
    assert_unwrapped()


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", [ServeSteady, ClusterBurst, AppSuite, Lint])
def test_seed_determines_the_input_digest(workload):
    first, again, other = (workload().setup(seed) for seed in (1, 1, 2))
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()


def test_runner_rejects_a_changed_input_digest():
    runner = run.Runner(Lint(), seed=1)
    runner.workload.FILES = 4
    runner.fresh()
    runner.input_digest = "0" * 64
    with pytest.raises(CheckFailed):
        runner.fresh()


def test_runner_rejects_rounds_with_different_results():
    first = Round([1], 1, 1, 0, {"virt_goodput": 1.0})
    second = Round([1], 1, 1, 0, {"virt_goodput": 0.5})
    run.Runner.same_results(first, first, "same")
    with pytest.raises(CheckFailed):
        run.Runner.same_results(first, second, "planted")


# ----------------------------------------------------------------------
# Correctness checks fire on planted miscounts
# ----------------------------------------------------------------------


def _loadgen(**counts):
    values = dict(offered=4, admitted=3, rejected=1, shed=0,
                  served_ok=2, served_failed=1)
    values.update(counts)
    return LoadgenResult(schedule_digest="x", **values)


def _servers(existing=("/out/a",)):
    responses = [SimpleNamespace(ok=True, request_id=1),
                 SimpleNamespace(ok=False, request_id=2)]
    fs = SimpleNamespace(exists=lambda path: path in existing)
    return {0: SimpleNamespace(responses=responses,
                               kernel=SimpleNamespace(fs=fs))}


def test_serving_checks_pass_on_consistent_counts():
    _check_serving(_loadgen(), _servers(), {(0, 1): "/out/a"})


@pytest.mark.parametrize("counts", [
    {"shed": 1},            # admitted + rejected + shed != offered
    {"served_failed": 0},   # served ok + failed != admitted
])
def test_serving_checks_fire_on_miscounts(counts):
    with pytest.raises(CheckFailed):
        _check_serving(_loadgen(**counts), _servers(), {(0, 1): "/out/a"})


def test_serving_check_fires_on_a_missing_output():
    with pytest.raises(CheckFailed):
        _check_serving(_loadgen(), _servers(existing=()), {(0, 1): "/out/a"})


def _report(failed=False, **lanes):
    values = dict(
        app_name="app", gateway="G", virtual_seconds=1.0, ipc_messages=0,
        ipc_bytes=0, lazy_copies=0, lazy_copy_bytes=0, nonlazy_copies=0,
        nonlazy_copy_bytes=0, api_calls=1, transitions=0,
        protected_buffers=0, crashes=0, restarts=0, processes=1,
        failed=failed, error="boom" if failed else "",
    )
    values.update(lanes)
    return RunReport(**values)


def test_app_checks_pass_and_record_the_reference_lanes():
    expected = {}
    protected = _report(ipc_messages=8, ipc_bytes=640)
    check_app_pair(expected, 1, _report(), protected)
    check_app_pair(expected, 1, _report(), protected)
    assert expected[1]["messages"] == 8


def test_app_check_fires_on_a_failed_run():
    with pytest.raises(CheckFailed):
        check_app_pair({}, 1, _report(), _report(failed=True))


def test_app_check_fires_on_native_ipc():
    with pytest.raises(AccountingError):
        check_app_pair({}, 1, _report(ipc_messages=1), _report())


def test_app_check_fires_on_a_lane_miscount():
    expected = {}
    check_app_pair(expected, 1, _report(), _report(ipc_messages=8))
    with pytest.raises(AccountingError):
        check_app_pair(expected, 1, _report(), _report(ipc_messages=9))


def _finding(rule, severity=Severity.ERROR):
    return Finding(rule=rule, severity=severity, path="p.py", line=1, col=0,
                   message="m")


def test_lint_checks():
    clean = SimpleNamespace(path="c.py", planted=None)
    planted = SimpleNamespace(path="v.py", planted="phase-order")
    check_lint_file(clean, [_finding("dead-api", Severity.WARNING)])
    check_lint_file(planted, [_finding("phase-order")])
    with pytest.raises(CheckFailed):
        check_lint_file(clean, [_finding("phase-order")])
    with pytest.raises(CheckFailed):
        check_lint_file(planted, [_finding("frozen-write")])


def test_generated_corpus_is_flagged_exactly_as_planted():
    from repro.staticcheck.checker import check_source

    fixture = Lint().setup(5)
    planted = [item for item in fixture.corpus.files if item.planted]
    assert planted and len(planted) < len(fixture.corpus.files)
    for item in fixture.corpus.files[:32]:
        findings, _ = check_source(item.path, item.source)
        check_lint_file(item, findings)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    assert samples_for(99.0) == 1000
    assert samples_for(90.0) == 100
    assert tail(list(range(1, 1001)), 99.0) == (990, 10)
    assert tail(list(range(1, 101)), 90.0) == (90, 10)
    with pytest.raises(ValueError):
        tail(list(range(1, 1000)), 99.0)


def test_quarter_ratio():
    assert quarter_ratio([1, 1, 2, 2, 3, 3, 4, 4]) == 4.0
    assert quarter_ratio([5] * 8) == 1.0
    assert quarter_ratio([]) == 0.0
    # Quarters are taken within each block (replay), then summed.
    assert quarter_ratio([1, 1, 2, 2, 3, 3, 4, 4], blocks=[4, 4]) == 1.5
    assert quarter_ratio([1, 1, 2, 2, 3, 3, 4, 4]) == 4.0


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what run.py prints
# ----------------------------------------------------------------------


def test_benchmark_json_matches_the_printed_metrics():
    import json
    import os
    import re

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert {w["name"] for w in spec["workloads"]} == set(
        __import__("perfbench.workloads", fromlist=["WORKLOADS"]).WORKLOADS
    )
    for group, units in (("end_to_end", run.END_TO_END_UNITS),
                         ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[group]} == units
        for metric in spec[group]:
            assert name.match(metric["name"]) and unit.match(metric["unit"])
            assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
