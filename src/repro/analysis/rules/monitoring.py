"""Observability rule (MCH005).

Monitoring callbacks and introspection handlers are where failures
disappear: an ``except`` block in a monitor hook or an introspection
handler that neither re-raises nor increments an error counter turns a
broken observer into silence -- the one component whose job is to
notice problems becomes the one place problems are invisible.  (That
observer state stays bounded is checked by running: tier-1's
``test_observer_memory.py`` runs every observer on the echo rig and
bounds the memory growth per RPC.)"""

from __future__ import annotations

import ast

from ..findings import Finding, Severity
from ..registry import GROUP_OBSERVABILITY, RuleInfo, rule
from . import FileContext, last_attr

#: Call suffixes that count as observing a failure inside an except
#: block: counter increments and flight-recorder / registry appends.
_OBSERVING_CALLS = frozenset({"inc", "record"})


def _is_observer(func: ast.AST) -> bool:
    """Functions MCH005 holds to the observe-or-reraise contract:
    ``on_<event>`` monitor hooks (RPC handlers use ``_on_<rpc>`` and are
    not hooks) and Bedrock's introspection handler ``_on_query``."""
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
