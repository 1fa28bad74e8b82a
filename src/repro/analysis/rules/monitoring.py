"""Observability rules (MCH004, MCH005).

Monitoring and profiling callbacks fire on every RPC and every
scheduling event.  State they accumulate must therefore be bounded by
construction -- a ring buffer (``deque(maxlen=...)``) or a windowed
rollup that evicts as it fills, like the continuous profiler's
``ProfileStore``.  A module-level list that grows by one entry per
event is a memory leak proportional to simulated traffic, and no
functional test ever notices it (MCH004).

The same callbacks are also where failures disappear: an ``except``
block in a monitor hook or an introspection handler that neither
re-raises nor increments an error counter turns a broken observer into
silence -- the one component whose job is to notice problems becomes
the one place problems are invisible (MCH005)."""

from __future__ import annotations

import ast
from typing import Optional

from ..findings import Finding, Severity
from ..registry import GROUP_OBSERVABILITY, RuleInfo, rule
from . import FileContext, last_attr

__all__ = ["GROWING_METHODS"]

#: Mutating methods that add entries to a container.
GROWING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "add",
        "update",
        "setdefault",
    }
)

#: dict-like constructors (matched on their final attribute, so both
#: ``defaultdict(...)`` and ``collections.defaultdict(...)`` hit).
_DICT_CALLS = frozenset({"defaultdict", "OrderedDict", "Counter"})


def _deque_is_bounded(node: ast.Call) -> bool:
    """``deque(maxlen=N)`` (or positional maxlen) with a non-None bound."""
    bound: Optional[ast.expr] = None
    if len(node.args) >= 2:
        bound = node.args[1]
    for kw in node.keywords:
        if kw.arg == "maxlen":
            bound = kw.value
    if bound is None:
        return False
    return not (isinstance(bound, ast.Constant) and bound.value is None)


def _container_kind(node: ast.AST) -> Optional[str]:
    """'list' / 'dict' / 'set' when ``node`` builds an unbounded mutable
    container, else None (bounded rings and non-containers pass)."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        name = last_attr(node.func)
        if name == "deque":
            return None if _deque_is_bounded(node) else "deque"
        if name in ("list", "dict", "set") and not node.args and not node.keywords:
            return name
        if name in _DICT_CALLS:
            return "dict"
    return None


def _module_containers(tree: ast.Module) -> dict[str, tuple[str, int]]:
    """name -> (kind, def line) for module-level unbounded containers."""
    containers: dict[str, tuple[str, int]] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        kind = _container_kind(value)
        if kind is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                containers[target.id] = (kind, stmt.lineno)
    return containers


def _is_hook(func: ast.AST) -> bool:
    """Monitoring callbacks follow the ``on_<event>`` hook convention
    (RPC handlers use ``_on_<rpc>`` and are not hooks)."""
    return getattr(func, "name", "").startswith("on_")


def _growth_sites(func: ast.AST, containers: dict) -> list[tuple[int, str, str]]:
    """(line, name, how) for each statement growing a known container."""
    sites = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            target = node.func
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.attr in GROWING_METHODS
                and target.value.id in containers
            ):
                sites.append((node.lineno, target.value.id, f".{target.attr}()"))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for tgt in targets:
                if (
                    isinstance(tgt, ast.Subscript)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id in containers
                ):
                    sites.append((node.lineno, tgt.value.id, "[key] assignment"))
    return sites


@rule(
    RuleInfo(
        id="MCH004",
        name="unbounded-monitoring-state",
        group=GROUP_OBSERVABILITY,
        severity=Severity.ERROR,
        summary="monitoring callback grows module-level state without a bound",
        rationale=(
            "monitor and profiler hooks run once per RPC / scheduling "
            "event: appending to a module-level list or dict there leaks "
            "memory in proportion to simulated traffic, and no functional "
            "test notices; keep per-event state in a ring "
            "(deque(maxlen=...)) or a windowed rollup that evicts as it "
            "fills, as the continuous profiler does"
        ),
    )
)
def check_unbounded_monitoring_state(ctx: FileContext) -> list[Finding]:
    containers = _module_containers(ctx.tree)
    if not containers:
        return []
    findings = []
    for func in ctx.functions:
        if not _is_hook(func):
            continue
        for line, name, how in _growth_sites(func, containers):
            kind, def_line = containers[name]
            findings.append(
                Finding(
                    "MCH004",
                    Severity.ERROR,
                    ctx.path,
                    line,
                    f"hook {func.name!r} grows module-level {kind} {name!r} "
                    f"(defined line {def_line}) via {how} with no bound; "
                    "use a ring buffer (deque(maxlen=...)) or a windowed "
                    "rollup instead",
                )
            )
    return findings


#: Call suffixes that count as observing a failure inside an except
#: block: counter increments and flight-recorder / registry appends.
_OBSERVING_CALLS = frozenset({"inc", "record"})


def _is_observer(func: ast.AST) -> bool:
    """Functions MCH005 holds to the observe-or-reraise contract:
    ``on_<event>`` monitor hooks (the MCH004 convention) and Bedrock's
    introspection handler ``_on_query``."""
    name = getattr(func, "name", "")
    return name.startswith("on_") or name == "_on_query"


def _handler_observes(handler: ast.ExceptHandler) -> bool:
    """True when the except body re-raises or visibly counts the error."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and last_attr(node.func) in _OBSERVING_CALLS:
            return True
    return False


@rule(
    RuleInfo(
        id="MCH005",
        name="unobserved-failure-swallow",
        group=GROUP_OBSERVABILITY,
        severity=Severity.ERROR,
        summary="observer except-block swallows the failure it should count",
        rationale=(
            "monitor hooks and introspection handlers are the system's "
            "eyes: an `except` there that neither re-raises nor "
            "increments an error counter makes observer failures "
            "invisible exactly where visibility is the job; count the "
            "error (`...errors.inc()`), record it, or re-raise"
        ),
    )
)
def check_unobserved_failure_swallow(ctx: FileContext) -> list[Finding]:
    findings = []
    for func in ctx.functions:
        if not _is_observer(func):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _handler_observes(node):
                continue
            caught = ast.unparse(node.type) if node.type is not None else "BaseException"
            findings.append(
                Finding(
                    "MCH005",
                    Severity.ERROR,
                    ctx.path,
                    node.lineno,
                    f"observer {func.name!r} swallows {caught} without "
                    "re-raising or incrementing an error counter; failures "
                    "in the observation path must be observable themselves",
                )
            )
    return findings
