"""RPC contract checking (MCH050-MCH052).

The component contract in this tree is syntactic and total: a provider
registers ``self.register_rpc("op", self._on_op)`` under its class's
``component_type`` namespace, and a client reaches it through
``self._forward("op", args)`` on a handle (or a raw
``margo.forward(addr, "<type>_<op>", ...)``).  Because both ends are
spelled in the source, a whole-program pass can diff them:

* **MCH050** -- a client forwards an operation no provider registers
  (typo'd name, or a handler that was deleted but not its callers);
* **MCH051** -- a registration whose handler is missing, not a
  generator, or has the wrong arity (handlers take ``(self, ctx)``);
* **MCH052** -- a client binds the result of an RPC whose handlers
  never ``return`` a value: the caller always receives ``None``.

Dynamic names -- f-strings (SSG's per-group RPCs), loop variables fed
from runtime data (the security guard) -- are resolved where a constant
can be proven (loops over literal tuples, single-constant locals) and
otherwise skipped.  A dynamic
registration attributed to a component marks that component **open**:
its orphan check is skipped.  An unattributable one opens the world:
forwards into no known namespace are no longer orphans.  Both are
tallied in :class:`ContractStats` for ``--stats``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from ..findings import Finding, Severity
from ..registry import GROUP_CONTRACTS, RuleInfo, rule
from ..rules import dotted_name, last_attr
from .callgraph import ClassInfo, FunctionInfo, ProjectIndex

__all__ = ["ContractIndex", "ContractStats", "build_contracts", "check_contracts"]


@dataclass
class Registration:
    """One provably-named ``register_rpc`` site."""

    component: str
    op: str
    path: str
    line: int
    cls: ClassInfo
    handler: Optional[FunctionInfo]
    handler_resolved: bool


@dataclass
class ForwardSite:
    """One provably-named client call site."""

    component: str
    op: str
    path: str
    line: int
    #: True / False when the call is a direct ``yield from``; None when
    #: the generator travels elsewhere (e.g. into ``parallel``).
    uses_result: Optional[bool]


@dataclass
class ContractStats:
    registrations: int = 0
    forwards: int = 0
    dynamic_registrations: int = 0
    dynamic_registrations_unattributed: int = 0


@dataclass
class ContractIndex:
    """Both ends of every RPC contract found in the tree."""

    registrations: list[Registration] = field(default_factory=list)
    forwards: list[ForwardSite] = field(default_factory=list)
    #: raw ``server.register("name", ...)`` wire names (no namespace).
    wire_registrations: set[str] = field(default_factory=set)
    component_types: set[str] = field(default_factory=set)
    #: components with a dynamic registration: orphan check skipped.
    open_components: set[str] = field(default_factory=set)
    stats: ContractStats = field(default_factory=ContractStats)

    def registered_ops(self, component: str) -> set[str]:
        return {r.op for r in self.registrations if r.component == component}

    def forwarded_ops(self, component: str) -> set[str]:
        return {f.op for f in self.forwards if f.component == component}


def _constant_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _local_constants(body: list[ast.AST]) -> dict[str, list[str]]:
    """Name -> provable constant string values inside ``func``.

    Covers ``for op in ("a", "b"):`` loops over literal tuples/lists and
    plain ``name = "const"`` assignments (all of them: a name assigned
    two constants on two branches yields both candidates).
    """
    values: dict[str, list[str]] = {}
    for node in body:
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            if isinstance(node.iter, (ast.Tuple, ast.List)):
                consts = [_constant_str(e) for e in node.iter.elts]
                if consts and all(c is not None for c in consts):
                    values.setdefault(node.target.id, []).extend(consts)  # type: ignore[arg-type]
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            const = _constant_str(node.value)
            if isinstance(target, ast.Name) and const is not None:
                values.setdefault(target.id, []).append(const)
    return values


def _name_candidates(
    node: ast.expr, local_constants: dict[str, list[str]]
) -> Optional[list[str]]:
    """All constant values ``node`` can take, or None when dynamic."""
    const = _constant_str(node)
    if const is not None:
        return [const]
    if isinstance(node, ast.Name) and node.id in local_constants:
        return list(dict.fromkeys(local_constants[node.id]))
    return None


def _component_type_of(index: ProjectIndex, cls: ClassInfo) -> Optional[str]:
    value = index.find_class_attr(cls, "component_type")
    if value is None:
        return None
    return _constant_str(value)


def _handle_backlinks(index: ProjectIndex) -> dict[str, str]:
    """handle class qualname -> component type, via ``handle_cls = X``."""
    links: dict[str, str] = {}
    for qualname in sorted(index.classes):
        cls = index.classes[qualname]
        spec = cls.class_attrs.get("handle_cls")
        if spec is None:
            continue
        component = _component_type_of(index, cls)
        if component is None:
            continue
        mod = index.modules[cls.module]
        dotted = None
        if isinstance(spec, ast.Name):
            dotted = spec.id
        elif isinstance(spec, ast.Attribute):
            dotted = dotted_name(spec)
        if dotted is None:
            continue
        resolved = index.resolve_name(mod, dotted)
        if isinstance(resolved, ClassInfo):
            links.setdefault(resolved.qualname, component)
    return links


def _parent_map(func: ast.AST) -> dict[int, ast.AST]:
    parents: dict[int, ast.AST] = {}
    stack: list[ast.AST] = list(getattr(func, "body", []))
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
            stack.append(child)
    return parents


def _result_usage(call: ast.Call, parents: dict[int, ast.AST]) -> Optional[bool]:
    """Whether the RPC result is consumed, if statically decidable."""
    wrapper = parents.get(id(call))
    if not isinstance(wrapper, ast.YieldFrom):
        return None  # generator handed elsewhere (parallel, a list, ...)
    statement = parents.get(id(wrapper))
    if isinstance(statement, ast.Expr):
        return False
    return True


def _wire_to_pair(
    index_types: set[str], wire: str
) -> Optional[tuple[str, str]]:
    """``"yokan_put_multi"`` -> ``("yokan", "put_multi")`` by longest
    known component-type prefix."""
    best: Optional[tuple[str, str]] = None
    for ctype in index_types:
        prefix = ctype + "_"
        if wire.startswith(prefix):
            if best is None or len(ctype) > len(best[0]):
                best = (ctype, wire[len(prefix):])
    return best


def build_contracts(index: ProjectIndex) -> ContractIndex:
    """Collect both ends of every RPC contract in the project."""
    contracts = ContractIndex()
    for qualname in sorted(index.classes):
        ctype = _component_type_of(index, index.classes[qualname])
        if ctype is not None:
            contracts.component_types.add(ctype)
    backlinks = _handle_backlinks(index)

    for qualname in sorted(index.functions):
        func = index.functions[qualname]
        local_constants = _local_constants(func.body)
        parents: Optional[dict[int, ast.AST]] = None
        for node in func.body:
            if not isinstance(node, ast.Call):
                continue
            attr = last_attr(node.func)
            if attr == "register_rpc":
                _collect_registration(
                    index, contracts, func, node, local_constants
                )
            elif attr == "register":
                _collect_wire_registration(contracts, node)
            elif attr == "_forward":
                parents = parents or _parent_map(func.node)
                _collect_forward(
                    index, contracts, backlinks, func, node,
                    local_constants, parents,
                )
            elif attr == "forward":
                parents = parents or _parent_map(func.node)
                _collect_wire_forward(
                    contracts, func, node, local_constants, parents
                )
    contracts.registrations.sort(key=lambda r: (r.path, r.line, r.op))
    contracts.forwards.sort(key=lambda f: (f.path, f.line, f.op))
    return contracts


def _collect_registration(
    index: ProjectIndex,
    contracts: ContractIndex,
    func: FunctionInfo,
    node: ast.Call,
    local_constants: dict[str, list[str]],
) -> None:
    if func.cls is None or not node.args:
        return
    component = _component_type_of(index, func.cls)
    if component is None:
        # e.g. the security guard: component_type assigned per instance.
        contracts.stats.dynamic_registrations += 1
        contracts.stats.dynamic_registrations_unattributed += 1
        return
    ops = _name_candidates(node.args[0], local_constants)
    if ops is None:
        contracts.stats.dynamic_registrations += 1
        contracts.open_components.add(component)
        return
    handler_attr = None
    handler_expr = node.args[1] if len(node.args) > 1 else None
    if isinstance(handler_expr, ast.Attribute) and isinstance(
        handler_expr.value, ast.Name
    ) and handler_expr.value.id == "self":
        handler_attr = handler_expr.attr
    for op in ops:
        handler: Optional[FunctionInfo] = None
        resolved = False
        if handler_attr is not None:
            handler = index.find_method(func.cls, handler_attr)
            resolved = True
        contracts.registrations.append(
            Registration(
                component=component,
                op=op,
                path=func.path,
                line=node.lineno,
                cls=func.cls,
                handler=handler,
                handler_resolved=resolved,
            )
        )
        contracts.stats.registrations += 1


def _collect_wire_registration(contracts: ContractIndex, node: ast.Call) -> None:
    if node.args:
        wire = _constant_str(node.args[0])
        if wire is not None:
            contracts.wire_registrations.add(wire)


def _collect_forward(
    index: ProjectIndex,
    contracts: ContractIndex,
    backlinks: dict[str, str],
    func: FunctionInfo,
    node: ast.Call,
    local_constants: dict[str, list[str]],
    parents: dict[int, ast.AST],
) -> None:
    if func.cls is None or not node.args:
        return
    component = _component_type_of(index, func.cls)
    if component is None:
        component = backlinks.get(func.cls.qualname)
    ops = _name_candidates(node.args[0], local_constants)
    if component is None or ops is None:
        return
    usage = _result_usage(node, parents)
    for op in ops:
        contracts.forwards.append(
            ForwardSite(
                component=component,
                op=op,
                path=func.path,
                line=node.lineno,
                uses_result=usage,
            )
        )
        contracts.stats.forwards += 1


def _collect_wire_forward(
    contracts: ContractIndex,
    func: FunctionInfo,
    node: ast.Call,
    local_constants: dict[str, list[str]],
    parents: dict[int, ast.AST],
) -> None:
    # margo.forward(address, rpc_name, args, ...) -- name is args[1].
    if len(node.args) < 2:
        return
    wires = _name_candidates(node.args[1], local_constants)
    if wires is None:
        return
    usage = _result_usage(node, parents)
    for wire in wires:
        pair = _wire_to_pair(contracts.component_types, wire)
        if pair is None:
            if wire not in contracts.wire_registrations:
                # Reported as an orphan only in a closed world (see
                # check_contracts); remember it via a sentinel component.
                contracts.forwards.append(
                    ForwardSite("", wire, func.path, node.lineno, usage)
                )
                contracts.stats.forwards += 1
            continue
        contracts.forwards.append(
            ForwardSite(pair[0], pair[1], func.path, node.lineno, usage)
        )
        contracts.stats.forwards += 1


ORPHANED_RPC_CALL = RuleInfo(
    id="MCH050",
    name="orphaned-rpc-call",
    group=GROUP_CONTRACTS,
    severity=Severity.ERROR,
    summary="client forwards an operation no provider in the tree registers",
    rationale=(
        "a typo'd or stale RPC name fails only at runtime, as a hung or "
        "erroring forward on the first call; diffing both ends of every "
        "register_rpc/_forward pair catches it at lint time"
    ),
)

HANDLER_SHAPE = RuleInfo(
    id="MCH051",
    name="rpc-handler-shape",
    group=GROUP_CONTRACTS,
    severity=Severity.ERROR,
    summary=(
        "registration names a missing handler, a non-generator, or a "
        "handler with the wrong arity (handlers are called as (self, ctx))"
    ),
    rationale=(
        "the kernel drives handlers as generators with a single request "
        "context; a plain function or wrong arity raises inside the RPC "
        "dispatch path where the traceback points at the kernel, not the "
        "broken provider"
    ),
)

RESPONSE_SHAPE = RuleInfo(
    id="MCH052",
    name="rpc-response-shape",
    group=GROUP_CONTRACTS,
    severity=Severity.ERROR,
    summary=(
        "client binds the result of an RPC whose handlers never return a "
        "value (the caller always receives None)"
    ),
    rationale=(
        "`x = yield from self._forward(...)` against a handler with no "
        "`return value` silently binds None; the failure surfaces as an "
        "AttributeError far from the contract mismatch that caused it"
    ),
)

@rule(ORPHANED_RPC_CALL, HANDLER_SHAPE, RESPONSE_SHAPE, scope="project")
def check_contracts(project) -> list[Finding]:
    """MCH050-MCH052 over both ends of every contract in the project."""
    contracts = build_contracts(project.index)
    findings: list[Finding] = []
    components_with_registrations = {r.component for r in contracts.registrations}
    open_world = contracts.stats.dynamic_registrations_unattributed > 0

    # MCH050: orphaned client calls.
    for site in contracts.forwards:
        if site.component == "":
            # A wire name matching no component type at all: an orphan
            # unless some dynamic registration could plausibly serve it.
            if not open_world and not contracts.open_components:
                findings.append(
                    Finding(
                        "MCH050", Severity.ERROR, site.path, site.line,
                        f"client forwards {site.op!r} but no provider "
                        "registers that RPC (unknown component namespace)",
                    )
                )
            continue
        if site.component not in components_with_registrations:
            continue  # provider side may live outside the linted tree
        if site.component in contracts.open_components:
            continue
        if site.op not in contracts.registered_ops(site.component):
            wire = f"{site.component}_{site.op}"
            if wire in contracts.wire_registrations:
                continue
            findings.append(
                Finding(
                    "MCH050", Severity.ERROR, site.path, site.line,
                    f"client forwards {site.component}.{site.op!r} but no "
                    f"{site.component!r} provider registers it; the RPC "
                    "can never be served",
                )
            )

    # MCH051: handler existence / shape.
    for reg in contracts.registrations:
        if not reg.handler_resolved:
            continue
        if reg.handler is None:
            findings.append(
                Finding(
                    "MCH051", Severity.ERROR, reg.path, reg.line,
                    f"registration of {reg.component}.{reg.op!r} names a "
                    f"handler method {reg.cls.name} does not define",
                )
            )
            continue
        problems = _handler_shape_problems(reg.handler)
        for problem in problems:
            findings.append(
                Finding(
                    "MCH051", Severity.ERROR, reg.path, reg.line,
                    f"handler {reg.handler.name!r} for "
                    f"{reg.component}.{reg.op!r} {problem}",
                )
            )

    # MCH052: client consumes a result no handler ever returns.
    returns_value: dict[tuple[str, str], bool] = {}
    has_handler: dict[tuple[str, str], bool] = {}
    for reg in contracts.registrations:
        key = (reg.component, reg.op)
        if reg.handler is not None:
            has_handler[key] = True
            if _returns_a_value(reg.handler):
                returns_value[key] = True
    for site in contracts.forwards:
        key = (site.component, site.op)
        if site.uses_result and has_handler.get(key) and not returns_value.get(key):
            findings.append(
                Finding(
                    "MCH052", Severity.ERROR, site.path, site.line,
                    f"client binds the result of {site.component}."
                    f"{site.op!r} but its handler(s) never return a "
                    "value; the caller always receives None",
                )
            )

    stats = contracts.stats
    project.stats.update(
        rpc_registrations=stats.registrations,
        rpc_forwards=stats.forwards,
        dynamic_registrations=stats.dynamic_registrations,
        dynamic_registrations_unattributed=stats.dynamic_registrations_unattributed,
    )
    return findings


def _handler_shape_problems(handler: FunctionInfo) -> list[str]:
    problems: list[str] = []
    if not handler.is_generator:
        problems.append(
            "is not a generator; handlers must yield kernel commands"
        )
    args = handler.node.args
    positional = len(args.args) + len(args.posonlyargs)
    required = positional - len(args.defaults)
    if required > 2 or (positional < 2 and args.vararg is None):
        problems.append(
            f"takes {positional} positional parameter(s); handlers are "
            "called as (self, ctx)"
        )
    return problems


def _returns_a_value(handler: FunctionInfo) -> bool:
    for node in handler.body:
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Constant) and node.value.value is None:
                continue
            return True
    return False
