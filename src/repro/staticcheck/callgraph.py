"""AST call-graph extraction for host programs (PyCG-style, stdlib ``ast``).

The builder parses one module at a time and recovers, per function, the
linear sequence of *events* the partition verifier replays: framework
API call sites, host-variable operations, and dereferences.  Resolution
follows values the way PyCG's assignment graph does, restricted to the
patterns host pipelines actually use:

* gateway values — parameters named like a gateway, results of
  ``FreePart().deploy(...)`` / ``NativeGateway(...)`` /
  ``gateway.for_thread(...)``, aliases through locals and ``self``
  attributes;
* bound-method aliases (``call = gateway.call``);
* string arguments through module-level constants
  (``FW = "opencv"; gateway.call(FW, ...)``);
* one level of intra-module interprocedural flow: a module function
  receiving a gateway argument is analyzed with that parameter treated
  as a gateway, and its trace is spliced into the caller's at the call
  site (fixpoint over the module's call edges).

Anything beyond that — dynamically computed API names, gateways stored
in containers, cross-module helpers — is counted as *unresolved* rather
than guessed at, mirroring how the paper's static phase hands
indirect-call walks to the dynamic analysis.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.apitypes import APIType

#: Parameter names treated as gateway values without any dataflow proof.
GATEWAY_PARAM_NAMES = frozenset({"gateway", "gw"})

#: Constructors whose result is a gateway.
GATEWAY_FACTORIES = frozenset({
    "NativeGateway", "FreePartGateway", "ServeGateway",
    "BaselineGateway",
})

#: Methods (on any tracked value) whose result is a gateway.
GATEWAY_PRODUCING_METHODS = frozenset({"deploy", "for_thread"})

#: Parameter names that mark a function as tenant-scoped (serve handler).
TENANT_PARAM_NAMES = frozenset({"tenant", "tenant_id"})


class ValueKind(enum.Enum):
    """Abstract value lattice tracked through assignments."""

    GATEWAY = "gateway"
    HANDLE = "handle"              # result of gateway.call(...)
    MATERIALIZED = "materialized"  # result of gateway.materialize(...)
    CALL_METHOD = "call_method"    # bound alias of gateway.call
    MATERIALIZE_METHOD = "materialize_method"
    OTHER = "other"


@dataclass(frozen=True)
class Value:
    """One abstract value (kind + the call event that produced it)."""

    kind: ValueKind
    origin_line: int = 0


OTHER = Value(ValueKind.OTHER)


# ----------------------------------------------------------------------
# Trace events
# ----------------------------------------------------------------------


@dataclass
class CallEvent:
    """One resolved framework API call site."""

    framework: str
    api: str
    line: int
    col: int
    result_name: Optional[str] = None
    #: Names of argument variables holding materialized payloads at the
    #: moment of the call (the wrong-partition-deref evidence).
    materialized_args: Tuple[str, ...] = ()
    #: True for declarative ``CallSite(...)`` records: the site exists in
    #: the program but is not part of this function's dynamic trace.
    declared_only: bool = False
    #: ``APIType`` declared on a ``CallSite(...)`` record, if literal.
    declared_type: Optional[APIType] = None


@dataclass
class HostOpEvent:
    """A host-variable operation through the gateway (alloc/write/read)."""

    op: str  # "alloc" | "write" | "read"
    tag: str
    line: int
    col: int


@dataclass
class MaterializeEvent:
    """An explicit host dereference ``gateway.materialize(x)``."""

    source_name: Optional[str]
    result_name: Optional[str]
    line: int
    col: int


@dataclass
class SharedStoreEvent:
    """A value stored into state that outlives the current function call.

    Targets are module-level names, ``global``-declared names, and
    ``self`` attributes/containers — the places a serve handler could
    park one tenant's ObjectRef where another tenant's request finds it.
    """

    target: str
    value_kind: ValueKind
    line: int
    col: int


@dataclass
class InlineCallEvent:
    """A call to a module-local function that receives a gateway value."""

    callee: str
    line: int
    col: int


TraceEvent = Union[
    CallEvent, HostOpEvent, MaterializeEvent, SharedStoreEvent, InlineCallEvent
]


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


@dataclass
class LocalSpec:
    """An ``APISpec(...)`` literal declared inside the analyzed module."""

    framework: str
    name: str
    qualname: str
    api_type: Optional[APIType]
    neutral: bool
    static_opaque: bool
    syscalls: Tuple[str, ...]
    init_syscalls: Tuple[str, ...]
    line: int


@dataclass
class FunctionTrace:
    """Everything the verifier needs about one function."""

    qualname: str
    line: int
    params: Tuple[str, ...]
    gateway_params: Set[str] = field(default_factory=set)
    tenant_scoped: bool = False
    events: List[TraceEvent] = field(default_factory=list)
    unresolved_calls: int = 0


@dataclass
class ModuleSummary:
    """The call-graph builder's output for one source file."""

    path: str
    functions: Dict[str, FunctionTrace] = field(default_factory=dict)
    #: Annotated host-variable tags (``MemoryLayout(tag=...)`` and
    #: ``annotated_tags=[...]`` literals found anywhere in the module).
    annotated_tags: Set[str] = field(default_factory=set)
    #: ``(framework, api)`` → in-file APISpec literal.
    local_specs: Dict[Tuple[str, str], LocalSpec] = field(default_factory=dict)
    #: Framework names registered in this module (``Framework("x")``).
    local_frameworks: Set[str] = field(default_factory=set)
    #: Frameworks with at least one APISpec whose name the builder could
    #: not resolve to a literal (dead-api checks are unsound for them).
    dynamic_spec_frameworks: Set[str] = field(default_factory=set)
    unresolved_calls: int = 0
    parse_error: Optional[str] = None
    #: The parsed module (None on parse errors).  The dataflow pass
    #: re-walks it with a taint environment; keeping the tree here saves
    #: a second parse and guarantees both passes see identical source.
    tree: Optional[ast.Module] = None
    #: Module-level string constants (name -> value), shared with the
    #: dataflow pass for tag/framework alias resolution.
    constants: Dict[str, str] = field(default_factory=dict)
    #: Module-level assigned names (shared-state bases for escape checks).
    module_level_names: Set[str] = field(default_factory=set)


# ----------------------------------------------------------------------
# Literal resolution helpers
# ----------------------------------------------------------------------


def _constant_str(node: ast.AST, constants: Dict[str, str]) -> Optional[str]:
    """A string literal, directly or through a module-level constant."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


def _constant_str_tuple(
    node: ast.AST, constants: Dict[str, str]
) -> Optional[Tuple[str, ...]]:
    """A tuple/list of string literals, or None if any element is opaque."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values: List[str] = []
    for element in node.elts:
        value = _constant_str(element, constants)
        if value is None:
            return None
        values.append(value)
    return tuple(values)


def _api_type_literal(node: ast.AST) -> Optional[APIType]:
    """An ``APIType.X`` attribute expression resolved to its member."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "APIType"
    ):
        return getattr(APIType, node.attr, None)
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    """The bare callee name of ``Name(...)`` / ``mod.Name(...)`` calls."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _attr_key(node: ast.AST) -> Optional[str]:
    """A dotted key for simple chains (``self.gateway`` → "self.gateway")."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ----------------------------------------------------------------------
# Module prepass
# ----------------------------------------------------------------------


def _module_prepass(tree: ast.Module, summary: ModuleSummary) -> Dict[str, str]:
    """Collect module-level constants, specs, annotations, frameworks.

    Returns the module's string-constant table (name → value).
    """
    constants: Dict[str, str] = {}
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            if (
                isinstance(target, ast.Name)
                and isinstance(statement.value, ast.Constant)
                and isinstance(statement.value.value, str)
            ):
                constants[target.id] = statement.value.value

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name == "APISpec":
            _collect_api_spec(node, constants, summary)
        elif name == "Framework":
            framework_name = None
            if node.args:
                framework_name = _constant_str(node.args[0], constants)
            for keyword in node.keywords:
                if keyword.arg == "name":
                    framework_name = _constant_str(keyword.value, constants)
            if framework_name:
                summary.local_frameworks.add(framework_name)
        elif name == "MemoryLayout":
            for keyword in node.keywords:
                if keyword.arg == "tag":
                    tag = _constant_str(keyword.value, constants)
                    if tag:
                        summary.annotated_tags.add(tag)
            if len(node.args) >= 2:
                tag = _constant_str(node.args[1], constants)
                if tag:
                    summary.annotated_tags.add(tag)
        for keyword in node.keywords:
            if keyword.arg == "annotated_tags":
                tags = _constant_str_tuple(keyword.value, constants)
                if tags:
                    summary.annotated_tags.update(tags)
    return constants


#: Positional field order of APISpec (name, framework, qualname,
#: ground_truth) — see :class:`repro.frameworks.base.APISpec`.
_API_SPEC_POSITIONAL = ("name", "framework", "qualname", "ground_truth")


def _collect_api_spec(
    node: ast.Call, constants: Dict[str, str], summary: ModuleSummary
) -> None:
    """Record one in-file ``APISpec(...)`` literal (or its dynamic-ness)."""
    fields: Dict[str, ast.AST] = {}
    for position, arg in enumerate(node.args[: len(_API_SPEC_POSITIONAL)]):
        fields[_API_SPEC_POSITIONAL[position]] = arg
    for keyword in node.keywords:
        if keyword.arg:
            fields[keyword.arg] = keyword.value

    framework = (
        _constant_str(fields["framework"], constants)
        if "framework" in fields else None
    )
    name = _constant_str(fields["name"], constants) if "name" in fields else None
    if framework and name is None:
        # A spec whose API name is computed (loop variables etc.): the
        # builder cannot enumerate this framework's APIs.
        summary.dynamic_spec_frameworks.add(framework)
        return
    if not framework or not name:
        return

    qualname = None
    if "qualname" in fields:
        qualname = _constant_str(fields["qualname"], constants)
    api_type = (
        _api_type_literal(fields["ground_truth"])
        if "ground_truth" in fields else None
    )
    neutral = False
    opaque = False
    for flag_name, default in (("neutral", False), ("static_opaque", False)):
        value = fields.get(flag_name)
        if isinstance(value, ast.Constant) and isinstance(value.value, bool):
            if flag_name == "neutral":
                neutral = value.value
            else:
                opaque = value.value
    syscalls = (
        _constant_str_tuple(fields.get("syscalls", ast.Tuple(elts=[])),
                            constants) or ()
    )
    init_syscalls = (
        _constant_str_tuple(fields.get("init_syscalls", ast.Tuple(elts=[])),
                            constants) or ()
    )
    summary.local_specs[(framework, name)] = LocalSpec(
        framework=framework,
        name=name,
        qualname=qualname or f"{framework}.{name}",
        api_type=api_type,
        neutral=neutral,
        static_opaque=opaque,
        syscalls=syscalls,
        init_syscalls=init_syscalls,
        line=node.lineno,
    )


# ----------------------------------------------------------------------
# Function walker
# ----------------------------------------------------------------------


class _FunctionWalker:
    """Linear, flow-ordered walk of one function body."""

    def __init__(
        self,
        builder: "CallGraphBuilder",
        trace: FunctionTrace,
        node: ast.FunctionDef,
    ) -> None:
        self.builder = builder
        self.trace = trace
        self.node = node
        self.env: Dict[str, Value] = {}
        self.local_names: Set[str] = set(trace.params)
        self.global_names: Set[str] = set()
        for param in trace.gateway_params:
            self.env[param] = Value(ValueKind.GATEWAY)

    # -- statement dispatch -------------------------------------------

    def walk(self) -> None:
        """Walk the body statements in source order."""
        for statement in self.node.body:
            self._statement(statement)

    def _statement(self, statement: ast.stmt) -> None:
        if isinstance(statement, ast.Global):
            self.global_names.update(statement.names)
        elif isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assignment(statement)
        elif isinstance(statement, ast.Expr):
            self._eval(statement.value)
        elif isinstance(statement, ast.Return):
            if statement.value is not None:
                self._eval(statement.value)
        elif isinstance(statement, (ast.If,)):
            self._eval(statement.test)
            for child in statement.body:
                self._statement(child)
            for child in statement.orelse:
                self._statement(child)
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            self._eval(statement.iter)
            for child in statement.body:
                self._statement(child)
            for child in statement.orelse:
                self._statement(child)
        elif isinstance(statement, ast.While):
            self._eval(statement.test)
            for child in statement.body:
                self._statement(child)
            for child in statement.orelse:
                self._statement(child)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                value = self._eval(item.context_expr)
                if item.optional_vars is not None and isinstance(
                    item.optional_vars, ast.Name
                ):
                    self._bind(item.optional_vars.id, value)
            for child in statement.body:
                self._statement(child)
        elif isinstance(statement, ast.Try):
            for child in statement.body:
                self._statement(child)
            for handler in statement.handlers:
                for child in handler.body:
                    self._statement(child)
            for child in statement.orelse:
                self._statement(child)
            for child in statement.finalbody:
                self._statement(child)
        # Nested defs/classes, imports, pass/break/continue: no events.

    # -- assignments ---------------------------------------------------

    def _assignment(self, statement: ast.stmt) -> None:
        if isinstance(statement, ast.Assign):
            value = self._eval(statement.value)
            for target in statement.targets:
                self._assign_target(target, value, statement)
        elif isinstance(statement, ast.AnnAssign):
            if statement.value is None:
                return
            value = self._eval(statement.value)
            self._assign_target(statement.target, value, statement)
        elif isinstance(statement, ast.AugAssign):
            value = self._eval(statement.value)
            self._assign_target(statement.target, value, statement,
                                augmented=True)

    def _assign_target(
        self,
        target: ast.AST,
        value: Value,
        statement: ast.stmt,
        augmented: bool = False,
    ) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.global_names:
                self._shared_store(target.id, value, statement)
            elif (
                augmented
                and target.id not in self.local_names
                and target.id in self.builder.module_level_names
            ):
                self._shared_store(target.id, value, statement)
            else:
                self._bind(target.id, value)
        elif isinstance(target, ast.Attribute):
            key = _attr_key(target)
            if key is not None:
                self.env[key] = value
                if key.startswith("self."):
                    self._shared_store(key, value, statement)
        elif isinstance(target, ast.Subscript):
            base = _attr_key(target.value) or (
                target.value.id if isinstance(target.value, ast.Name) else None
            )
            if base is not None and self._is_shared_base(base):
                self._shared_store(f"{base}[...]", value, statement)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_target(element, OTHER, statement)

    def _bind(self, name: str, value: Value) -> None:
        self.local_names.add(name)
        self.env[name] = value

    def _is_shared_base(self, base: str) -> bool:
        """Does ``base`` name state that outlives this function call?"""
        if base.startswith("self."):
            return True
        root = base.split(".", 1)[0]
        if root in self.global_names:
            return True
        return (
            root not in self.local_names
            and root in self.builder.module_level_names
        )

    def _shared_store(
        self, target: str, value: Value, statement: ast.stmt
    ) -> None:
        self.trace.events.append(SharedStoreEvent(
            target=target,
            value_kind=value.kind,
            line=statement.lineno,
            col=statement.col_offset,
        ))

    # -- expression evaluation ----------------------------------------

    def _lookup(self, node: ast.AST) -> Value:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, OTHER)
        key = _attr_key(node)
        if key is not None:
            return self.env.get(key, OTHER)
        return OTHER

    def _eval(self, node: ast.AST) -> Value:
        """Evaluate an expression, emitting events for recognized calls."""
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            receiver = self._lookup(node.value)
            if receiver.kind is ValueKind.GATEWAY:
                # Bound-method aliases: ``call = gateway.call``.
                if node.attr == "call":
                    return Value(ValueKind.CALL_METHOD, node.lineno)
                if node.attr == "materialize":
                    return Value(ValueKind.MATERIALIZE_METHOD, node.lineno)
            return self._lookup(node)
        if isinstance(node, ast.Name):
            return self._lookup(node)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self._eval(element)
            return OTHER
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._eval(key)
            for value in node.values:
                self._eval(value)
            return OTHER
        if isinstance(node, ast.BinOp):
            self._eval(node.left)
            self._eval(node.right)
            return OTHER
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(value)
            return OTHER
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for comparator in node.comparators:
                self._eval(comparator)
            return OTHER
        if isinstance(node, ast.UnaryOp):
            self._eval(node.operand)
            return OTHER
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            first = self._eval(node.body)
            second = self._eval(node.orelse)
            return first if first.kind is second.kind else OTHER
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._eval(value.value)
            return OTHER
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Subscript):
            self._eval(node.value)
            return OTHER
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        return OTHER

    # -- call classification -------------------------------------------

    def _eval_call(self, node: ast.Call) -> Value:
        func = node.func

        # Method calls on tracked values: gateway.call / materialize /
        # host_* / for_thread / deploy, and shared-container mutation.
        if isinstance(func, ast.Attribute):
            receiver = self._lookup(func.value)
            method = func.attr

            if receiver.kind is ValueKind.GATEWAY:
                handled = self._gateway_method(node, method)
                if handled is not None:
                    return handled
            if method in GATEWAY_PRODUCING_METHODS:
                self._eval_args(node)
                return Value(ValueKind.GATEWAY, node.lineno)
            if method in ("append", "add", "insert", "setdefault", "update"):
                base = _attr_key(func.value) or (
                    func.value.id if isinstance(func.value, ast.Name) else None
                )
                argument_kinds = [self._eval(arg) for arg in node.args]
                for keyword in node.keywords:
                    argument_kinds.append(self._eval(keyword.value))
                if base is not None and self._is_shared_base(base):
                    stored = next(
                        (v for v in argument_kinds
                         if v.kind in (ValueKind.HANDLE,
                                       ValueKind.MATERIALIZED)),
                        None,
                    )
                    if stored is not None:
                        self.trace.events.append(SharedStoreEvent(
                            target=f"{base}.{method}()",
                            value_kind=stored.kind,
                            line=node.lineno,
                            col=node.col_offset,
                        ))
                return OTHER
            self._eval_args(node)
            return OTHER

        # Bare-name calls.
        if isinstance(func, ast.Name):
            callee = func.id
            bound = self.env.get(callee)
            if bound is not None and bound.kind is ValueKind.CALL_METHOD:
                return self._framework_call(node)
            if bound is not None and bound.kind is ValueKind.MATERIALIZE_METHOD:
                return self._materialize_call(node)
            if callee in GATEWAY_FACTORIES:
                self._eval_args(node)
                return Value(ValueKind.GATEWAY, node.lineno)
            if callee == "CallSite":
                self._declared_site(node)
                return OTHER
            local_function = self.builder.function_nodes.get(callee)
            if local_function is not None:
                return self._local_call(node, callee)
        self._eval_args(node)
        return OTHER

    def _eval_args(self, node: ast.Call) -> List[Value]:
        values = [self._eval(arg) for arg in node.args]
        values.extend(self._eval(keyword.value) for keyword in node.keywords)
        return values

    def _gateway_method(self, node: ast.Call, method: str) -> Optional[Value]:
        """Events for a method call on a gateway value (None = not ours)."""
        if method == "call":
            return self._framework_call(node)
        if method == "materialize":
            return self._materialize_call(node)
        if method in ("host_alloc", "host_write", "host_read"):
            tag = (
                _constant_str(node.args[0], self.builder.constants)
                if node.args else None
            )
            self._eval_args(node)
            if tag is not None:
                self.trace.events.append(HostOpEvent(
                    op=method[len("host_"):],
                    tag=tag,
                    line=node.lineno,
                    col=node.col_offset,
                ))
            return OTHER
        return None

    def _framework_call(self, node: ast.Call) -> Value:
        """A ``gateway.call(framework, api, *args)`` site."""
        if len(node.args) < 2:
            self._unresolved()
            return Value(ValueKind.HANDLE, node.lineno)
        framework = _constant_str(node.args[0], self.builder.constants)
        api = _constant_str(node.args[1], self.builder.constants)
        payload_args = node.args[2:]
        materialized: List[str] = []
        for arg in payload_args:
            value = self._eval(arg)
            if value.kind is ValueKind.MATERIALIZED:
                materialized.append(
                    arg.id if isinstance(arg, ast.Name) else "<expression>"
                )
        for keyword in node.keywords:
            value = self._eval(keyword.value)
            if value.kind is ValueKind.MATERIALIZED:
                materialized.append(keyword.arg or "<expression>")
        if framework is None or api is None:
            self._unresolved()
            return Value(ValueKind.HANDLE, node.lineno)
        event = CallEvent(
            framework=framework,
            api=api,
            line=node.lineno,
            col=node.col_offset,
            materialized_args=tuple(materialized),
        )
        self.trace.events.append(event)
        return Value(ValueKind.HANDLE, node.lineno)

    def _unresolved(self) -> None:
        """Count a call site whose framework/API names are not literal."""
        self.trace.unresolved_calls += 1
        self.builder.summary.unresolved_calls += 1

    def _materialize_call(self, node: ast.Call) -> Value:
        source = (
            node.args[0].id
            if node.args and isinstance(node.args[0], ast.Name) else None
        )
        self._eval_args(node)
        self.trace.events.append(MaterializeEvent(
            source_name=source,
            result_name=None,
            line=node.lineno,
            col=node.col_offset,
        ))
        return Value(ValueKind.MATERIALIZED, node.lineno)

    def _declared_site(self, node: ast.Call) -> None:
        """A ``CallSite(framework, api, ...)`` data record."""
        fields: Dict[str, ast.AST] = {}
        positional = ("framework", "api", "argspec", "api_type")
        for position, arg in enumerate(node.args[: len(positional)]):
            fields[positional[position]] = arg
        for keyword in node.keywords:
            if keyword.arg:
                fields[keyword.arg] = keyword.value
        framework = (
            _constant_str(fields["framework"], self.builder.constants)
            if "framework" in fields else None
        )
        api = (
            _constant_str(fields["api"], self.builder.constants)
            if "api" in fields else None
        )
        if framework is None or api is None:
            self.trace.unresolved_calls += 1
            self.builder.summary.unresolved_calls += 1
            return
        declared_type = (
            _api_type_literal(fields["api_type"])
            if "api_type" in fields else None
        )
        self.trace.events.append(CallEvent(
            framework=framework,
            api=api,
            line=node.lineno,
            col=node.col_offset,
            declared_only=True,
            declared_type=declared_type,
        ))

    def _local_call(self, node: ast.Call, callee: str) -> Value:
        """A call to another function defined in this module."""
        argument_values = self._eval_args(node)
        gateway_positions = [
            position for position, value in enumerate(argument_values[: len(node.args)])
            if value.kind is ValueKind.GATEWAY
        ]
        gateway_keywords = [
            keyword.arg
            for keyword, value in zip(
                node.keywords, argument_values[len(node.args):]
            )
            if keyword.arg and value.kind is ValueKind.GATEWAY
        ]
        if gateway_positions or gateway_keywords:
            self.builder.record_gateway_edge(
                callee, gateway_positions, gateway_keywords
            )
            self.trace.events.append(InlineCallEvent(
                callee=callee, line=node.lineno, col=node.col_offset,
            ))
        return OTHER


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------


class CallGraphBuilder:
    """Build a :class:`ModuleSummary` for one Python source file."""

    #: Fixpoint bound for interprocedural gateway propagation.
    MAX_PASSES = 5

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.summary = ModuleSummary(path=path)
        self._tree: Optional[ast.Module] = None
        self.constants: Dict[str, str] = {}
        self.module_level_names: Set[str] = set()
        self.function_nodes: Dict[str, ast.FunctionDef] = {}
        self._function_qualnames: Dict[str, str] = {}
        #: name → parameter names proven to receive gateway values.
        self._propagated: Dict[str, Set[str]] = {}
        self._edges_changed = False

    @classmethod
    def from_file(cls, path: str) -> "CallGraphBuilder":
        """Construct a builder by reading ``path``."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls(path, handle.read())

    def record_gateway_edge(
        self,
        callee: str,
        positions: Sequence[int],
        keywords: Sequence[str],
    ) -> None:
        """A caller passes gateway values into a module-local function."""
        node = self.function_nodes.get(callee)
        if node is None:
            return
        parameter_names = [argument.arg for argument in node.args.args]
        marked = self._propagated.setdefault(callee, set())
        before = len(marked)
        for position in positions:
            if position < len(parameter_names):
                marked.add(parameter_names[position])
        for keyword in keywords:
            if keyword in parameter_names:
                marked.add(keyword)
        if len(marked) != before:
            self._edges_changed = True

    def build(self) -> ModuleSummary:
        """Parse, prepass, and analyze every function to a fixpoint."""
        try:
            tree = ast.parse(self.source, filename=self.path)
        except SyntaxError as exc:
            self.summary.parse_error = f"{exc.msg} (line {exc.lineno})"
            return self.summary
        self._tree = tree
        self.summary.tree = tree
        self.constants = _module_prepass(tree, self.summary)
        self.summary.constants = self.constants

        for statement in tree.body:
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        self.module_level_names.add(target.id)
            elif isinstance(statement, ast.AnnAssign):
                if isinstance(statement.target, ast.Name):
                    self.module_level_names.add(statement.target.id)
        self.summary.module_level_names = self.module_level_names

        self._collect_functions(tree)
        for _ in range(self.MAX_PASSES):
            self._edges_changed = False
            self.summary.unresolved_calls = 0
            self._analyze_all()
            if not self._edges_changed:
                break
        return self.summary

    def _collect_functions(self, tree: ast.Module) -> None:
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.function_nodes[statement.name] = statement
                self._function_qualnames[statement.name] = statement.name
            elif isinstance(statement, ast.ClassDef):
                for member in statement.body:
                    if isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                        qualname = f"{statement.name}.{member.name}"
                        # Methods are analyzed but only reachable by
                        # name for module-level functions; a method name
                        # clashing with a function keeps the function.
                        self.function_nodes.setdefault(member.name, member)
                        self._function_qualnames.setdefault(
                            member.name, qualname
                        )

    def _analyze_all(self) -> None:
        self.summary.functions.clear()
        module_trace = FunctionTrace(qualname="<module>", line=1, params=())
        module_walker = _FunctionWalker(self, module_trace, self._tree)
        module_walker.local_names.update(self.module_level_names)
        module_walker.walk()
        if module_trace.events or module_trace.unresolved_calls:
            self.summary.functions["<module>"] = module_trace
        for name, node in self.function_nodes.items():
            qualname = self._function_qualnames.get(name, name)
            trace = self._analyze_function(name, qualname, node)
            self.summary.functions[qualname] = trace

    def _analyze_function(
        self, name: str, qualname: str, node: ast.FunctionDef
    ) -> FunctionTrace:
        parameter_names = tuple(
            argument.arg
            for argument in (
                node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            )
        )
        gateway_params = {
            parameter for parameter in parameter_names
            if parameter in GATEWAY_PARAM_NAMES
            or parameter.endswith("_gateway")
        }
        gateway_params.update(self._propagated.get(name, set()))
        trace = FunctionTrace(
            qualname=qualname,
            line=node.lineno,
            params=parameter_names,
            gateway_params=gateway_params,
            tenant_scoped=any(
                parameter in TENANT_PARAM_NAMES
                or parameter.startswith("tenant")
                for parameter in parameter_names
            ),
        )
        walker = _FunctionWalker(self, trace, node)
        walker.walk()
        return trace


def build_module(path: str) -> ModuleSummary:
    """Convenience: build the call-graph summary of one file."""
    return CallGraphBuilder.from_file(path).build()
