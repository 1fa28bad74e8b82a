"""Cooperative-scheduling rules (MCH01x).

The kernel is single-threaded and cooperative: an RPC handler ULT that
blocks for real, parks forever, or suspends while holding a mutex does
not crash anything -- it silently wedges or serializes the simulation.
MCH013 is a file-scope rule; ``MCH011`` (a ULT suspending or finishing
while it holds a mutex) and ``MCH012`` (a handler that never responds)
are the catalog entries of runtime-only checks, which ``make test``
runs strict over the services that take locks.
"""

from __future__ import annotations

import ast

from ...monitoring.monitor import HOOK_NAMES
from ..findings import Finding, Severity
from ..registry import GROUP_SCHEDULING, RuleInfo, register, rule
from . import FileContext, FunctionNode, last_attr

register(
    RuleInfo(
        id="MCH011",
        name="yield-while-holding-lock",
        group=GROUP_SCHEDULING,
        severity=Severity.ERROR,
        summary="ULT suspended or finished while holding a mutex (runtime only)",
        rationale=(
            "a suspended lock holder serializes every other ULT that "
            "needs the mutex behind an arbitrary sleep or remote peer -- "
            "and deadlocks outright if the wakeup depends on a waiter; "
            "hold locks only across Compute sections"
        ),
        runtime_checked=True,
    ),
    RuleInfo(
        id="MCH012",
        name="handler-never-responds",
        group=GROUP_SCHEDULING,
        severity=Severity.ERROR,
        summary="dispatched RPC handler finished without a response (runtime only)",
        rationale=(
            "every dispatched RPC must end in a response or an error "
            "response -- a handler that drops its handle leaves the caller "
            "waiting until its own timeout (or forever), which is how the "
            "paper's services wedge under reconfiguration"
        ),
        runtime_checked=True,
    ),
)


def _is_monitor_class(node: ast.ClassDef) -> bool:
    """A ``*Monitor``/``*Tracer`` class, a subclass of one, or any class
    that defines a monitor hook (the continuous profiler)."""
    if "Monitor" in node.name or node.name.endswith("Tracer"):
        return True
    if any(isinstance(item, FunctionNode) and item.name in HOOK_NAMES for item in node.body):
        return True
    for base in node.bases:
        name = last_attr(base)
        if name is not None and ("Monitor" in name or name.endswith("Tracer")):
            return True
    return False


@rule(
    RuleInfo(
        id="MCH013",
        name="monitor-hook-misbehavior",
        group=GROUP_SCHEDULING,
        severity=Severity.ERROR,
        summary="monitor hook raises, yields, or issues RPCs",
        rationale=(
            "monitoring callbacks run inline on the RPC fast path with "
            "no ULT context of their own: a raise would take the data "
            "path down (the runtime now contains it, but counts it as an "
            "error), a forward() would recurse into the dispatcher, and "
            "a yield makes the hook a no-op generator"
        ),
    )
)
def check_monitor_hooks(ctx: FileContext) -> list[Finding]:
    findings = []
    for node in ctx.nodes:
        if not (isinstance(node, ast.ClassDef) and _is_monitor_class(node)):
            continue
        for method in node.body:
            if not isinstance(method, FunctionNode):
                continue
            if not method.name.startswith("on_"):
                continue
            for inner in ctx.body(method):
                bad = None
                if isinstance(inner, ast.Raise):
                    bad = "raises"
                elif isinstance(inner, (ast.Yield, ast.YieldFrom)):
                    bad = "yields (hooks are plain callbacks, not ULTs)"
                elif isinstance(inner, ast.Call) and last_attr(inner.func) == "forward":
                    bad = "issues an RPC via forward()"
                if bad is not None:
                    findings.append(
                        Finding(
                            "MCH013",
                            Severity.ERROR,
                            ctx.path,
                            inner.lineno,
                            f"monitor hook {node.name}.{method.name} {bad}; "
                            "hooks must observe and record only",
                        )
                    )
    return findings
