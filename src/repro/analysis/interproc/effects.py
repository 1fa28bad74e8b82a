"""Effect inference over the whole-program call graph.

Each function gets a small effect record -- *blocks*, *is-ULT* -- seeded
from its own body and propagated to fixpoint over the call graph.
Propagation respects execution semantics:

* ``blocks`` travels over ``call`` edges (the callee body runs in the
  caller's frame) and ``delegate`` edges (``yield from`` runs the
  generator inline), but **stops at ULT boundaries**: a callee that is
  itself ULT code gets its own MCH014 report, so every blocking site is
  reported exactly once, in its nearest enclosing ULT;
* ``is-ULT`` travels only over ``delegate`` edges -- a plain call to a
  generator never runs it.

Every inherited effect carries a witness edge, so findings can print
the full call chain down to the offending primitive.  Witnesses are
chosen deterministically (smallest ``(line, callee)``), making the
fixpoint -- and therefore the finding text -- byte-stable.

The rule emitted here, **MCH014**, reports a ULT body that reaches a
real blocking call at any call depth, its own body (depth 0) included.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from ..findings import Finding, Severity
from ..registry import GROUP_SCHEDULING, RuleInfo, rule
from ..rules import call_name, is_ult_generator
from ..rules.scheduling import BLOCKING_CALLS
from .callgraph import FunctionInfo, ProjectIndex

__all__ = ["Effects", "EffectAnalysis", "check_deep_blocking"]

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
    is_ult: bool = False


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
            name = call_name(node) if isinstance(node, ast.Call) else None
            if name in BLOCKING_CALLS:
                eff.blocks = Witness("primitive", f"{name}()", node.lineno)
                break
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
        inherited_ult = False
        for edge in func.edges:
            callee = self.effects.get(edge.callee)
            if callee is None:
                continue
            if callee.blocks is not None and not callee.is_ult:
                block_candidates.append((edge.line, edge.callee))
            if edge.kind == "delegate" and callee.is_ult:
                inherited_ult = True
        if eff.blocks is None and block_candidates:
            line, callee = min(block_candidates)
            eff.blocks = Witness("edge", callee, line)
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
            "UltSleep/Park so the scheduler can run other work"
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
