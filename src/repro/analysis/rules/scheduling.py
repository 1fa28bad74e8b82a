"""Cooperative-scheduling rules (MCH01x).

The kernel is single-threaded and cooperative: an RPC handler ULT that
blocks for real, parks forever, or suspends while holding a mutex does
not crash anything -- it silently wedges or serializes the simulation.
The file-scope rules live here, next to the catalog entry of the
runtime-only check ``MCH012``; the whole-program ``MCH014`` shares
:data:`BLOCKING_CALLS`.
"""

from __future__ import annotations

import ast

from ..findings import Finding, Severity
from ..registry import GROUP_SCHEDULING, RuleInfo, register, rule
from . import FileContext, FunctionNode, last_attr

#: Real-world blocking calls that stall the whole event loop when issued
#: from inside a ULT body.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "input",
        "os.system",
        "os.popen",
        "os.wait",
        "select.select",
        "socket.socket",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "requests.get",
        "requests.post",
        "requests.put",
        "requests.delete",
        "requests.request",
        "urllib.request.urlopen",
        "threading.Thread",
        "threading.Lock",
        "threading.Event",
        "multiprocessing.Process",
        "queue.Queue",
    }
)

#: Yielded commands that suspend the ULT (give up the stream).
_SUSPENDING_COMMANDS = frozenset({"UltSleep", "Park"})

#: ``yield from`` delegates that suspend the calling ULT.
_SUSPENDING_DELEGATES = frozenset({"forward", "wait", "bulk_transfer"})


def _lock_events(body: list[ast.AST]) -> list[tuple[int, int, str, str]]:
    """(line, col, kind, detail) events of one function body, in source order.

    kinds: ``acquire`` (yield from ...acquire()), ``release``
    (...release() call), ``suspend`` (a yielded command or delegate that
    gives up the stream).
    """
    events = []
    yielded_calls: set[int] = set()
    for node in body:
        if isinstance(node, ast.YieldFrom) and isinstance(node.value, ast.Call):
            call = node.value
            yielded_calls.add(id(call))
            attr = last_attr(call.func)
            if attr == "acquire":
                events.append((node.lineno, node.col_offset, "acquire", "acquire"))
            elif attr in _SUSPENDING_DELEGATES:
                events.append((node.lineno, node.col_offset, "suspend", f"{attr}()"))
        elif isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
            call = node.value
            yielded_calls.add(id(call))
            attr = last_attr(call.func)
            if attr in _SUSPENDING_COMMANDS:
                events.append((node.lineno, node.col_offset, "suspend", attr))
    for node in body:
        if (
            isinstance(node, ast.Call)
            and id(node) not in yielded_calls
            and last_attr(node.func) == "release"
        ):
            events.append((node.lineno, node.col_offset, "release", "release"))
    events.sort()
    return events


@rule(
    RuleInfo(
        id="MCH011",
        name="yield-while-holding-lock",
        group=GROUP_SCHEDULING,
        severity=Severity.ERROR,
        summary="ULT suspends (UltSleep/Park/forward/...) while holding a mutex",
        rationale=(
            "a suspended lock holder serializes every other ULT that "
            "needs the mutex behind an arbitrary sleep or remote peer -- "
            "and deadlocks outright if the wakeup depends on a waiter; "
            "hold locks only across Compute sections"
        ),
        runtime_checked=True,
    )
)
def check_yield_holding_lock(ctx: FileContext) -> list[Finding]:
    findings = []
    for func in ctx.functions:
        held = 0
        for line, _col, kind, detail in _lock_events(ctx.body(func)):
            if kind == "acquire":
                held += 1
            elif kind == "release":
                held = max(0, held - 1)
            elif kind == "suspend" and held > 0:
                findings.append(
                    Finding(
                        "MCH011",
                        Severity.ERROR,
                        ctx.path,
                        line,
                        f"{func.name!r} suspends ({detail}) while holding a "
                        "mutex; release before yielding the stream",
                    )
                )
    return findings


register(
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
    if "Monitor" in node.name or node.name.endswith("Tracer"):
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
