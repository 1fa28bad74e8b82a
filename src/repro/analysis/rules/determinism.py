"""Determinism rule (MCH001).

Code running under the simulated Margo runtime must produce bit-identical
schedules for equal seeds, so simulated components take time only from
``SimKernel.now``.  The other two ways to break that are checked by
running instead.  An unseeded draw or OS entropy reached from
``src/repro`` raises under tier-1: the root ``conftest.py`` refuses it,
whatever alias it was imported under, so even a draw whose value no
pinned output reads fails the test that reaches it
(benchmarks/results/rules_by_running.txt).  Iteration order that
follows the hash seed fails ``make contract``, which regenerates every
table under two ``PYTHONHASHSEED`` values and diffs them.
"""

from __future__ import annotations

import ast

from ..findings import Finding, Severity
from ..registry import GROUP_DETERMINISM, RuleInfo, rule
from . import FileContext, call_name

__all__ = ["WALL_CLOCK_CALLS"]

#: Callables that read (or block on) the host's wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

@rule(
    RuleInfo(
        id="MCH001",
        name="wall-clock-access",
        group=GROUP_DETERMINISM,
        severity=Severity.ERROR,
        summary="call reads or blocks on the host wall clock",
        rationale=(
            "simulated components must take time only from SimKernel.now "
            "and pass time only via UltSleep/Compute; a wall-clock "
            "read makes two runs with the same seed diverge, and a real "
            "sleep stalls the single-threaded event loop"
        ),
    )
)
def check_wall_clock(ctx: FileContext) -> list[Finding]:
    findings = []
    for node in ctx.nodes:
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in WALL_CLOCK_CALLS:
                findings.append(
                    Finding(
                        "MCH001",
                        Severity.ERROR,
                        ctx.path,
                        node.lineno,
                        f"wall-clock call {name}(); use SimKernel.now / "
                        "UltSleep for simulated time",
                    )
                )
    return findings
