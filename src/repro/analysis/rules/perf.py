"""Hot-path performance rules (MCH00x, perf group).

Functions that run once per simulated event -- the kernel's
schedule→fire path, pool push/pop, the task step -- are annotated
``# mochi-lint: hotpath`` (the comment sits on the ``def`` line or the
line directly above it).  MCH006 catches a per-event allocation there:
a lambda, a nested ``def`` (closure cell + function object per call),
or a dict literal/comprehension inside a marked function is an object
the event loop builds and GC-tracks millions of times per run.
"""

from __future__ import annotations

import ast

from ..findings import Finding, Severity
from ..registry import GROUP_PERF, RuleInfo, rule
from . import FileContext, FunctionNode

HOTPATH_MARKER = "mochi-lint: hotpath"


def _is_hotpath(func: ast.AST, lines: list[str]) -> bool:
    """True when the marker comment is on the ``def`` line or the line
    directly above it (above any decorators, the repo convention puts it
    immediately over the ``def``)."""
    lineno = getattr(func, "lineno", 0)
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(lines) and HOTPATH_MARKER in lines[candidate - 1]:
            return True
    return False


def _describe(node: ast.AST) -> str:
    if isinstance(node, ast.Lambda):
        return "lambda (a function object per call)"
    if isinstance(node, FunctionNode):
        return f"nested def {node.name!r} (a closure per call)"
    if isinstance(node, ast.DictComp):
        return "dict comprehension (a fresh dict per call)"
    return "dict literal (a fresh dict per call)"


@rule(
    RuleInfo(
        id="MCH006",
        name="hotpath-allocation",
        group=GROUP_PERF,
        severity=Severity.WARNING,
        summary="per-call allocation inside a '# mochi-lint: hotpath' function",
        rationale=(
            "hot-path functions (kernel post/schedule, pool push/pop, "
            "task step) run once per simulated event -- millions of "
            "times per run; a lambda, closure, or dict literal there "
            "allocates and GC-tracks an object per event, so keep "
            "state in preallocated slots or hoist it out of the "
            "function"
        ),
        runtime_checked=False,
    )
)
def check_hotpath_allocation(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    lines = ctx.lines
    for func in ctx.functions:
        if not _is_hotpath(func, lines):
            continue
        for node in ctx.body(func):
            if isinstance(node, (ast.Lambda, ast.Dict, ast.DictComp) + FunctionNode):
                findings.append(
                    Finding(
                        "MCH006",
                        Severity.WARNING,
                        ctx.path,
                        node.lineno,
                        f"{_describe(node)} inside hot-path function "
                        f"{func.name!r}; allocate outside the per-event "
                        "path or use preallocated slots",
                        source="static",
                    )
                )
    return findings
