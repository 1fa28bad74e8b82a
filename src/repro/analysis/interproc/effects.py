"""Effect inference over the whole-program call graph.

Each function gets a small effect record -- *blocks*, *suspends*
(yields the stream), *parks-unbounded*, *is-ULT* -- seeded from its own
body and propagated to fixpoint over the call graph.  Propagation
respects execution semantics:

* ``blocks`` travels over ``call`` edges (the callee body runs in the
  caller's frame) and ``delegate`` edges (``yield from`` runs the
  generator inline), but **stops at ULT boundaries**: a callee that is
  itself ULT code gets its own MCH014 report, so every blocking site is
  reported exactly once, in its nearest enclosing ULT;
* ``suspends``, ``parks-unbounded`` and ``is-ULT`` travel only over
  ``delegate`` edges -- a plain call to a generator never runs it.

Every inherited effect carries a witness edge, so findings can print
the full call chain down to the offending primitive.  Witnesses are
chosen deterministically (smallest ``(line, callee)``), making the
fixpoint -- and therefore the finding text -- byte-stable.

Rules emitted here:

* **MCH014** -- a ULT body reaches a real blocking call at any call
  depth, its own body (depth 0) included;
* **MCH015** -- a mutex is held across a suspension that happens
  *inside a callee* (the interprocedural upgrade of MCH011, which only
  sees suspensions spelled in the holder's own body).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from ..findings import Finding, Severity
from ..registry import GROUP_SCHEDULING, RuleInfo, rule
from ..rules import call_name, is_ult_generator, last_attr
from ..rules.scheduling import (
    BLOCKING_CALLS,
    _SUSPENDING_COMMANDS,
    _SUSPENDING_DELEGATES,
    _lock_events,
    _unbounded_wait,
)
from .callgraph import FunctionInfo, ProjectIndex

__all__ = [
    "Effects",
    "EffectAnalysis",
    "check_deep_blocking",
    "check_lock_across_callee_yield",
    "callee_suspend_lines",
    "callee_park_lines",
]

#: Cap on rendered call-chain length (cycles cannot loop forever).
_MAX_CHAIN = 12


@dataclass
class Witness:
    """Why a function has an effect: its own primitive, or a callee."""

    kind: str  #: ``primitive`` or ``edge``
    detail: str  #: primitive call name, or callee qualname
    line: int


@dataclass
class Effects:
    """The inferred effect record for one function."""

    blocks: Optional[Witness] = None
    suspends: Optional[Witness] = None
    is_ult: bool = False
    #: The function (or a delegate chain below it) waits with no
    #: timeout: a caller that hasn't responded yet may stall forever.
    parks_unbounded: Optional[Witness] = None


class EffectAnalysis:
    """Computes and stores the per-function effect fixpoint."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.effects: dict[str, Effects] = {}
        self._seed()
        self._fixpoint()

    # -- seeding -------------------------------------------------------
    def _seed(self) -> None:
        for qualname in sorted(self.index.functions):
            func = self.index.functions[qualname]
            self.effects[qualname] = self._base_effects(func)

    @staticmethod
    def _base_effects(func: FunctionInfo) -> Effects:
        eff = Effects(is_ult=is_ult_generator(func.body))
        for node in func.body:
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in BLOCKING_CALLS and eff.blocks is None:
                    eff.blocks = Witness("primitive", f"{name}()", node.lineno)
            elif isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
                attr = last_attr(node.value.func)
                if attr in _SUSPENDING_COMMANDS and eff.suspends is None:
                    eff.suspends = Witness("primitive", attr, node.lineno)
            elif isinstance(node, ast.YieldFrom) and isinstance(node.value, ast.Call):
                attr = last_attr(node.value.func)
                if attr in _SUSPENDING_DELEGATES and eff.suspends is None:
                    eff.suspends = Witness("primitive", f"{attr}()", node.lineno)
            if isinstance(node, ast.Call) and eff.parks_unbounded is None:
                why = _unbounded_wait(node)
                if why is not None and not _is_ult_join(node):
                    eff.parks_unbounded = Witness("primitive", why, node.lineno)
        return eff

    # -- propagation ---------------------------------------------------
    def _fixpoint(self) -> None:
        ordered = sorted(self.index.functions)
        changed = True
        while changed:
            changed = False
            for qualname in ordered:
                if self._update(self.index.functions[qualname]):
                    changed = True

    def _update(self, func: FunctionInfo) -> bool:
        eff = self.effects[func.qualname]
        changed = False
        block_candidates: list[tuple[int, str]] = []
        suspend_candidates: list[tuple[int, str]] = []
        park_candidates: list[tuple[int, str]] = []
        inherited_ult = False
        for edge in func.edges:
            callee = self.effects.get(edge.callee)
            if callee is None:
                continue
            if callee.blocks is not None and not callee.is_ult:
                block_candidates.append((edge.line, edge.callee))
            if edge.kind == "delegate":
                if callee.suspends is not None:
                    suspend_candidates.append((edge.line, edge.callee))
                if callee.parks_unbounded is not None:
                    park_candidates.append((edge.line, edge.callee))
                if callee.is_ult:
                    inherited_ult = True
        if eff.blocks is None and block_candidates:
            line, callee = min(block_candidates)
            eff.blocks = Witness("edge", callee, line)
            changed = True
        if eff.suspends is None and suspend_candidates:
            line, callee = min(suspend_candidates)
            eff.suspends = Witness("edge", callee, line)
            changed = True
        if eff.parks_unbounded is None and park_candidates:
            line, callee = min(park_candidates)
            eff.parks_unbounded = Witness("edge", callee, line)
            changed = True
        if inherited_ult and not eff.is_ult:
            eff.is_ult = True
            changed = True
        return changed

    # -- chain rendering -----------------------------------------------
    def blocking_chain(self, qualname: str) -> list[str]:
        """Follow blocks-witnesses down to the primitive, as text."""
        chain: list[str] = []
        current: Optional[str] = qualname
        for _ in range(_MAX_CHAIN):
            if current is None:
                break
            eff = self.effects.get(current)
            if eff is None or eff.blocks is None:
                break
            chain.append(_short(current))
            if eff.blocks.kind == "primitive":
                chain.append(eff.blocks.detail)
                return chain
            current = eff.blocks.detail
        chain.append("...")
        return chain

    def suspend_primitive(self, qualname: str) -> str:
        """The suspension primitive a delegate chain bottoms out in."""
        current: Optional[str] = qualname
        for _ in range(_MAX_CHAIN):
            eff = self.effects.get(current) if current else None
            if eff is None or eff.suspends is None:
                break
            if eff.suspends.kind == "primitive":
                return eff.suspends.detail
            current = eff.suspends.detail
        return "a kernel command"

    def park_primitive(self, qualname: str) -> str:
        """The unbounded wait a delegate chain bottoms out in."""
        current: Optional[str] = qualname
        for _ in range(_MAX_CHAIN):
            eff = self.effects.get(current) if current else None
            if eff is None or eff.parks_unbounded is None:
                break
            if eff.parks_unbounded.kind == "primitive":
                return eff.parks_unbounded.detail
            current = eff.parks_unbounded.detail
        return "an unbounded wait"


def callee_suspend_lines(
    analysis: "EffectAnalysis", func: FunctionInfo
) -> dict[int, str]:
    """Per-callee suspend summary for one function: line of each
    ``delegate`` edge whose callee suspends -> human description.

    This is the interface the flow layer (mochi-flow) consumes to mark
    "callee may suspend" statements as CFG suspension points without
    re-deriving the effect fixpoint.
    """
    lines: dict[int, str] = {}
    for edge in func.edges:
        if edge.kind != "delegate":
            continue
        eff = analysis.effects.get(edge.callee)
        if eff is None or eff.suspends is None:
            continue
        lines.setdefault(
            edge.line,
            f"{edge.display}() via {analysis.suspend_primitive(edge.callee)}",
        )
    return lines


def callee_park_lines(
    analysis: "EffectAnalysis", func: FunctionInfo
) -> dict[int, str]:
    """Delegate edges whose callee chain bottoms out in an *unbounded*
    wait: line -> description.  MCH070 treats these as divergence
    points."""
    lines: dict[int, str] = {}
    for edge in func.edges:
        if edge.kind != "delegate":
            continue
        eff = analysis.effects.get(edge.callee)
        if eff is None or eff.parks_unbounded is None:
            continue
        lines.setdefault(
            edge.line,
            f"delegates to {edge.display}() which waits unboundedly "
            f"({analysis.park_primitive(edge.callee)})",
        )
    return lines


def _is_ult_join(call: ast.Call) -> bool:
    """A ``Park(x.done_event, ...)`` is a join on spawned work, not an
    open-ended wait: the child ULT's termination (and with it the
    wakeup) is the runtime's responsibility -- forwards time out, the
    scheduler drains.  ``parallel()`` is the canonical case.  Parks on
    arbitrary application events stay unbounded."""
    for arg in call.args[:1]:
        if isinstance(arg, ast.Attribute) and arg.attr == "done_event":
            return True
    return False


def _short(qualname: str) -> str:
    """``repro.yokan.provider.YokanProvider._on_put`` -> ``YokanProvider._on_put``."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname


@rule(
    RuleInfo(
        id="MCH014",
        name="blocking-call-reachable-from-ult",
        group=GROUP_SCHEDULING,
        severity=Severity.ERROR,
        summary=(
            "ULT body reaches a real blocking call at any call depth, "
            "including the ULT body itself; reported with the call chain"
        ),
        rationale=(
            "the kernel is single-threaded: one time.sleep() or socket "
            "read in a ULT, or three calls below it, freezes every "
            "simulated process at once, and the paper's breadcrumb design "
            "(one blocked ES starves every ULT mapped to it) makes that a "
            "whole-service outage; blocking must be expressed as "
            "Sleep/UltSleep/Park so the scheduler can run other work"
        ),
    ),
    scope="project",
)
def check_deep_blocking(project) -> list[Finding]:
    """MCH014: ULT reaches a blocking call, in its body or below it."""
    findings: list[Finding] = []
    analysis = project.effects

    def report(path: str, line: int, name: str, chain: list[str]) -> None:
        findings.append(
            Finding(
                "MCH014",
                Severity.ERROR,
                path,
                line,
                f"ULT body {name!r} reaches blocking {chain[-1]} through "
                f"{' -> '.join(chain)}; yield a kernel command instead",
            )
        )

    for ctx in project.files:
        for node in ctx.functions:
            func = project.index.by_node.get(id(node))
            body = ctx.body(node)
            if func is None:
                # Nested defs are not indexed: their own body only.
                is_ult, short = is_ult_generator(body), node.name
            else:
                is_ult = analysis.effects[func.qualname].is_ult
                short = _short(func.qualname)
            if not is_ult:
                continue
            for inner in body:
                called = call_name(inner) if isinstance(inner, ast.Call) else None
                if called in BLOCKING_CALLS:
                    report(ctx.path, inner.lineno, node.name, [short, f"{called}()"])
            for edge in func.edges if func is not None else ():
                callee = analysis.effects.get(edge.callee)
                if callee is None or callee.blocks is None or callee.is_ult:
                    continue
                report(
                    ctx.path, edge.line, node.name,
                    [short] + analysis.blocking_chain(edge.callee),
                )
    return findings


@rule(
    RuleInfo(
        id="MCH015",
        name="lock-held-across-callee-suspension",
        group=GROUP_SCHEDULING,
        severity=Severity.ERROR,
        summary=(
            "mutex held across a `yield from` whose callee suspends the ULT "
            "somewhere inside its own body"
        ),
        rationale=(
            "MCH011 catches `yield` under a held lock in the holder's own "
            "body; delegating to a helper that suspends is the same bug with "
            "one stack frame of camouflage -- every other ULT contending for "
            "the mutex deadlocks against a parked holder"
        ),
    ),
    scope="project",
)
def check_lock_across_callee_yield(project) -> list[Finding]:
    """MCH015: mutex held across a suspension hidden inside a callee."""
    findings: list[Finding] = []
    index, analysis = project.index, project.effects
    for qualname in sorted(index.functions):
        func = index.functions[qualname]
        callee_suspends = _delegate_suspend_events(func, analysis)
        if not callee_suspends:
            continue
        events = [
            (line, col, kind, detail)
            for line, col, kind, detail in _lock_events(func.body)
            if kind in ("acquire", "release")
        ]
        events.extend(callee_suspends)
        events.sort()
        held = 0
        for line, _col, kind, detail in events:
            if kind == "acquire":
                held += 1
            elif kind == "release":
                held = max(0, held - 1)
            elif held > 0:
                findings.append(
                    Finding(
                        "MCH015",
                        Severity.ERROR,
                        func.path,
                        line,
                        f"{func.name!r} holds a mutex across {detail}; "
                        "release before delegating to suspending code",
                    )
                )
    return findings


def _delegate_suspend_events(
    func: FunctionInfo, analysis: EffectAnalysis
) -> list[tuple[int, int, str, str]]:
    """Delegate edges whose callee suspends, as lock-scan events.

    Direct suspensions (``yield Sleep(...)``, ``yield from forward(...)``)
    are MCH011's to report; this lists only suspensions that MCH011
    cannot see because they happen inside a project callee.
    """
    delegate_lines = {}
    for edge in func.edges:
        if edge.kind != "delegate":
            continue
        callee_eff = analysis.effects.get(edge.callee)
        if callee_eff is None or callee_eff.suspends is None:
            continue
        primitive = analysis.suspend_primitive(edge.callee)
        delegate_lines.setdefault(
            edge.line,
            f"{edge.display}() (suspends via {primitive})",
        )
    events: list[tuple[int, int, str, str]] = []
    for node in func.body:
        if not (isinstance(node, ast.YieldFrom) and isinstance(node.value, ast.Call)):
            continue
        attr = last_attr(node.value.func)
        if attr in _SUSPENDING_DELEGATES or attr == "acquire":
            continue  # MCH011's direct-suspend territory
        detail = delegate_lines.get(node.lineno)
        if detail is not None:
            events.append((node.lineno, node.col_offset, "callee-suspend", detail))
    return events
