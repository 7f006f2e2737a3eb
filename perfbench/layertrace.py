"""Outside-in per-layer tracing for the traced benchmark run.

The program under test is never edited.  :class:`LayerTracer` wraps each
layer's public entry points *at class level* (and its public module
functions, wherever ``repro`` modules bound them), times every call with
the host clock, and keeps a stack so each call's *self* time — its
duration minus the part its wrapped children cover — is charged to the
layer that owns it.  Nothing here runs in an untraced measurement:
:meth:`LayerTracer.remove` restores every original attribute, and
:func:`assert_unwrapped` lets the untraced path prove it.

Each benchmark op is a root span opened with :meth:`LayerTracer.begin_op`.
When it closes, the layers' self times inside it plus the op's own
``unattributed`` remainder must sum exactly (integer nanoseconds) to the
op's duration; :class:`RollupError` is raised otherwise.

Hot leaves (the ``sim.memory`` and ``obs`` layers) aggregate self time and call
counts without emitting a span each; every other wrapped call records a
span ``(op, span_id, parent_id, name, start_ns, end_ns)``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Marks a wrapper so :func:`assert_unwrapped` can find leftovers.
WRAPPER_MARK = "__perfbench_wrapper__"
#: Spans kept in memory (about 80 MB); later ones are counted as dropped.
MAX_SPANS = 400_000


@dataclass(frozen=True)
class Layer:
    """One layer: named after its module, with the entry points to wrap.

    ``targets`` are ``(module, name)`` pairs naming a class (its public
    methods, and those of its subclasses defined in the same module, are
    wrapped), one method as ``Class.method`` (in the class and those
    subclasses), or a module-level function.  ``spans=False`` marks a hot
    leaf layer: self time and call counts only.
    """

    name: str
    targets: Tuple[Tuple[str, str], ...]
    spans: bool = True


LAYERS: Tuple[Layer, ...] = (
    Layer("sim.memory", (("repro.sim.memory", "AddressSpace"),), spans=False),
    Layer("sim.ipc", (("repro.sim.ipc", "Channel.send"),
                      ("repro.sim.ipc", "Channel.receive"),
                      ("repro.sim.ipc", "Channel.try_receive"))),
    Layer("sim.kernel", tuple(
        ("repro.sim.kernel", f"SimKernel.{name}")
        for name in ("spawn", "restart", "kill", "transfer", "channel_pair")
    )),
    Layer("core.statemachine", (
        ("repro.core.statemachine", "TemporalStateMachine.observe_call"),)),
    Layer("core.runtime", (("repro.core.runtime", "FreePartGateway"),
                           ("repro.core.runtime", "FreePart"))),
    Layer("core.gateway", (("repro.core.gateway", "ApiGateway"),)),
    Layer("core.agent", tuple(
        ("repro.core.agent", f"AgentProcess.{name}")
        for name in ("execute", "execute_batch", "restart", "fetch_local",
                     "end_init_phase")
    )),
    Layer("core.rpc", (("repro.core.rpc", "ObjectStore.register"),
                       ("repro.core.rpc", "ObjectStore.fetch"))),
    Layer("frameworks", (("repro.frameworks.base", "ExecutionContext.invoke"),)),
    Layer("serve.server", (("repro.serve.server", "PipelineServer"),)),
    Layer("serve.gateway", (("repro.serve.gateway", "ServeGateway"),)),
    Layer("serve.pool", (("repro.serve.pool", "AgentPool"),
                         ("repro.serve.pool", "PoolSet"))),
    Layer("serve.admission", (("repro.serve.admission", "AdmissionQueue"),)),
    Layer("serve.batching", (("repro.serve.batching", "plan_batches"),
                             ("repro.serve.batching", "BatchingStats"))),
    Layer("serve.autoscale", (
        ("repro.serve.autoscale", "PoolAutoscaler"),
        ("repro.serve.autoscale", "BrownoutController"),
        ("repro.serve.autoscale", "BurnMonitor"),
    )),
    Layer("faults", (("repro.faults.injector", "FaultInjector"),)),
    Layer("obs", (
        ("repro.obs.tracer", "SpanTracer"),
        ("repro.obs.tracer", "_OpenSpan"),
        ("repro.obs.timeseries", "TimeSeriesRegistry"),
        ("repro.obs.metrics", "MetricsRegistry"),
        ("repro.obs.slo", "evaluate_slos"),
    ), spans=False),
    Layer("cluster", (
        ("repro.cluster.serve", "ClusterServer"),
        ("repro.cluster.kernel", "ClusterKernel.transfer"),
        ("repro.cluster.kernel", "ClusterKernel.maybe_fail_node"),
    )),
    Layer("staticcheck.callgraph", (
        ("repro.staticcheck.callgraph", "CallGraphBuilder"),)),
    Layer("staticcheck.inference", (
        ("repro.staticcheck.inference", "PartitionInferencer"),)),
    Layer("staticcheck.dataflow", (
        ("repro.staticcheck.dataflow", "DataflowAnalysis"),)),
    Layer("staticcheck.rules", (("repro.staticcheck.rules", "Rule"),)),
)

#: Non-public methods that are the real entry points of a class: a
#: ``with tracer.span(...)`` block does its work in ``__enter__``/``__exit__``.
EXTRA_METHODS = {"_OpenSpan": ("__enter__", "__exit__")}

#: An observer sees every completed call of one wrapped entry point:
#: ``observer(tracer, args, result)``.  Used for counters that need a
#: return value or the receiver (transitions, queue depth, queue wait).
Observer = Callable[["LayerTracer", tuple, Any], None]


class RollupError(AssertionError):
    """An op's layer self times do not reconcile with its duration."""


def _eager(generator_function: Callable) -> Callable:
    """Run a generator function to completion inside the call, so its
    work is timed where it is called (findings are consumed whole)."""

    @functools.wraps(generator_function)
    def run(*args: Any, **kwargs: Any):
        return iter(list(generator_function(*args, **kwargs)))

    return run


def _classes(module: Any, cls: type) -> List[type]:
    """``cls`` and its subclasses defined in the same module."""
    found: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current in found:
            continue
        found.append(current)
        pending.extend(
            sub for sub in current.__subclasses__()
            if sub.__module__ == module.__name__
        )
    return found


class LayerTracer:
    """Wraps the layers, times their calls, and rolls self time up per op."""

    def __init__(
        self,
        layers: Sequence[Layer] = LAYERS,
        observers: Optional[Dict[str, Observer]] = None,
        clock: Callable[[], int] = time.perf_counter_ns,
        per_op_keys: Sequence[str] = (),
    ) -> None:
        self.layers = tuple(layers)
        self.observers = dict(observers or {})
        self.clock = clock
        #: Self nanoseconds per layer over everything traced.
        self.self_ns: Dict[str, int] = {layer.name: 0 for layer in self.layers}
        #: Completed calls per wrapped entry point (``Class.method``).
        self.calls: Dict[str, int] = {}
        #: Free-form counters maintained by observers.
        self.values: Dict[str, float] = {}
        self.spans: List[Tuple[int, int, int, str, int, int]] = []
        self.dropped_spans = 0
        #: Frames are ``[child_ns, span_id]``; the sentinel is "no op".
        self._stack: List[List[int]] = [[0, 0]]
        self._next_span = 1
        self._patches: List[Tuple[Any, str, Any]] = []
        # Per-op rollup.
        self.ops = 0
        self.op_ns = 0
        self.op_self_ns: Dict[str, int] = dict.fromkeys(self.self_ns, 0)
        self.op_unattributed_ns = 0
        #: Per-op call counts of the entry points in ``per_op_keys``, in
        #: op order.
        self.per_op_keys = tuple(per_op_keys)
        self.per_op_counts: List[Tuple[int, ...]] = []
        self._op: Optional[Tuple[List[int], int, Dict[str, int], Tuple[int, ...]]] = None

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def install(self) -> "LayerTracer":
        """Wrap every layer's entry points (idempotent per tracer)."""
        if self._patches:
            return self
        for layer in self.layers:
            for module_name, attr in layer.targets:
                module = importlib.import_module(module_name)
                class_name, _, method = attr.partition(".")
                target = getattr(module, class_name)
                if inspect.isclass(target):
                    for cls in _classes(module, target):
                        self._wrap_class(layer, cls, method)
                else:
                    self._wrap_function(layer, module, attr, target)
        return self

    def remove(self) -> None:
        """Restore every wrapped attribute to its original."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.remove()

    def _wrap_class(self, layer: Layer, cls: type, only: str = "") -> None:
        extras = EXTRA_METHODS.get(cls.__name__, ())
        for name, value in list(vars(cls).items()):
            if not inspect.isfunction(value) or only not in ("", name):
                continue
            if name.startswith("_") and name not in extras:
                continue
            key = f"{cls.__name__}.{name}"
            self._patches.append((cls, name, value))
            setattr(cls, name, self._wrapper(layer, key, value))

    def _wrap_function(
        self, layer: Layer, module: Any, attr: str, function: Callable
    ) -> None:
        wrapper = self._wrapper(layer, attr, function)
        # Rebind it wherever a repro module imported it by name, too.
        for name, other in sorted(sys.modules.items()):
            if other is None or not name.startswith("repro"):
                continue
            for bound, value in list(vars(other).items()):
                if value is function:
                    self._patches.append((other, bound, function))
                    setattr(other, bound, wrapper)

    def _wrapper(self, layer: Layer, key: str, function: Callable) -> Callable:
        target = _eager(function) if inspect.isgeneratorfunction(function) else function
        tracer = self
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = self.clock
        name = layer.name
        emit = layer.spans
        observer = self.observers.get(key)
        calls.setdefault(key, 0)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if emit:
                frame = [0, tracer._next_span]
                tracer._next_span += 1
            else:
                frame = [0, stack[-1][1]]
            stack.append(frame)
            start = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                self_ns[name] += duration - frame[0]
                calls[key] += 1
                if emit:
                    tracer._record(frame[1], stack[-1][1], key, start, end)
            if observer is not None:
                observer(tracer, args, result)
            return result

        functools.update_wrapper(wrapper, function)
        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def _record(self, span_id: int, parent: int, name: str,
                start: int, end: int) -> None:
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return
        op = self.ops + 1 if self._op is not None else 0
        self.spans.append((op, span_id, parent, name, start, end))

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------

    def begin_op(self) -> None:
        """Open the root span of one benchmark op."""
        if self._op is not None:
            raise RollupError("an op is already open")
        frame = [0, self._next_span]
        self._next_span += 1
        counts = tuple(self.calls.get(key, 0) for key in self.per_op_keys)
        self._stack.append(frame)
        self._op = (frame, self.clock(), dict(self.self_ns), counts)

    def end_op(self) -> None:
        """Close the op's root span and reconcile its per-layer rollup."""
        end = self.clock()
        if self._op is None:
            raise RollupError("no op is open")
        frame, start, before, counts = self._op
        if self._stack[-1] is not frame:
            raise RollupError("a layer span is still open at op end")
        self._stack.pop()
        duration = end - start
        self._stack[-1][0] += duration
        layer_ns = {
            name: self.self_ns[name] - before[name] for name in self.self_ns
        }
        unattributed = duration - frame[0]
        if sum(layer_ns.values()) + unattributed != duration:
            raise RollupError(
                f"op {self.ops + 1}: layer self times "
                f"{sum(layer_ns.values())} ns + unattributed "
                f"{unattributed} ns != duration {duration} ns"
            )
        self._record(frame[1], 0, "op", start, end)
        self._op = None
        self.ops += 1
        self.op_ns += duration
        self.op_unattributed_ns += unattributed
        for name, value in layer_ns.items():
            self.op_self_ns[name] += value
        self.per_op_counts.append(tuple(
            self.calls.get(key, 0) - count
            for key, count in zip(self.per_op_keys, counts)
        ))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def self_ms_per_op(self) -> Dict[str, float]:
        """Mean self milliseconds per op for every layer, plus unattributed."""
        ops = max(self.ops, 1)
        rollup = {
            f"{name}.self_ms": value / ops / 1e6
            for name, value in self.op_self_ns.items()
        }
        rollup["unattributed.self_ms"] = self.op_unattributed_ns / ops / 1e6
        return rollup

    def write_spans(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the recorded spans (and their name table) as JSON."""
        names = sorted({span[3] for span in self.spans})
        index = {name: position for position, name in enumerate(names)}
        payload = {
            **meta,
            "columns": ["op", "span_id", "parent_id", "name", "start_ns",
                        "end_ns"],
            "names": names,
            "dropped_spans": self.dropped_spans,
            "spans": [
                [op, span_id, parent, index[name], start, end]
                for op, span_id, parent, name, start, end in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def assert_unwrapped(layers: Sequence[Layer] = LAYERS) -> None:
    """Raise if any layer entry point still carries a tracing wrapper."""
    for layer in layers:
        for module_name, attr in layer.targets:
            module = importlib.import_module(module_name)
            target = getattr(module, attr.partition(".")[0])
            members = (
                [value for cls in _classes(module, target)
                 for value in vars(cls).values()]
                if inspect.isclass(target) else [target]
            )
            for value in members:
                if getattr(value, WRAPPER_MARK, False):
                    raise RuntimeError(
                        f"tracing wrapper left on {layer.name} ({attr})"
                    )
