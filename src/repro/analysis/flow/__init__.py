"""CFG + path-sensitive typestate analysis: the MCH07x protocol rules.

Where the file-scope rules pattern-match single statements and the
interproc rules reason about *which* functions have effects, this layer
reasons about *paths*:

* :mod:`cfg` -- one CFG per function (statement-granular, with
  exception edges, duplicated ``finally`` bodies, and suspension points
  taken from the interproc effect summaries);
* :mod:`dataflow` -- a generic forward fixpoint over finite may-set
  typestate lattices;
* :mod:`protocols` -- the MCH070-MCH074 protocol rules, one function at
  a time.

:func:`check_protocols` is the project-scope rule the engine runs: one
prescan per function decides which protocols apply, and the protocols
that do share that function's CFG.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..registry import rule
from ..rules import last_attr
from ..rules.scheduling import _is_handler
from ..interproc.effects import callee_park_lines, callee_suspend_lines
from .cfg import build_cfg
from .protocols import (
    _ACQUIRE_ATTRS,
    _DESTROY_ATTRS,
    LOCK_RELEASED_ON_EXIT,
    RESOURCE_RELEASED_ON_EXC,
    RESPOND_EXACTLY_ONCE,
    SPAN_ENDED_ON_EXC,
    USE_AFTER_RELEASE,
    check_lock_paths,
    check_resource_paths,
    check_respond,
    check_span_paths,
    check_typestate,
)

__all__ = ["check_protocols"]


def _prescan(func: ast.AST, body: list[ast.AST]) -> dict[str, bool]:
    """One pass over the body deciding which protocol rules apply at all."""
    wants = {
        "respond": _is_handler(func, body),
        "lock": False,
        "resource": False,
        "typestate": False,
        "span": False,
    }
    for node in body:
        if isinstance(node, ast.YieldFrom) and isinstance(node.value, ast.Call):
            attr = last_attr(node.value.func)
            if attr == "acquire":
                wants["lock"] = True
            elif attr == "migrate":
                wants["typestate"] = True
        elif isinstance(node, ast.Call):
            attr = last_attr(node.func)
            if attr in _ACQUIRE_ATTRS:
                wants["resource"] = True
            elif attr == "start_span":
                wants["span"] = True
            elif attr in _DESTROY_ATTRS and isinstance(node.func, ast.Attribute):
                wants["typestate"] = True
    return wants


@rule(
    RESPOND_EXACTLY_ONCE,
    LOCK_RELEASED_ON_EXIT,
    RESOURCE_RELEASED_ON_EXC,
    USE_AFTER_RELEASE,
    SPAN_ENDED_ON_EXC,
    scope="project",
)
def check_protocols(project) -> list[Finding]:
    """MCH070-MCH074 over every function of the project."""
    analysis = project.effects
    findings: list[Finding] = []
    stats = {
        "flow_functions_scanned": 0,
        "flow_cfgs_built": 0,
        "flow_cfg_nodes": 0,
        "flow_cfg_edges": 0,
        "flow_suspend_points": 0,
        "flow_handlers_analyzed": 0,
        "flow_exit_paths": 0,
    }

    for ctx in project.files:
        path = ctx.path
        for func in ctx.functions:
            stats["flow_functions_scanned"] += 1
            wants = _prescan(func, ctx.body(func))
            if not any(wants.values()):
                continue
            info = project.index.by_node.get(id(func))
            suspends = callee_suspend_lines(analysis, info) if info else {}
            parks = callee_park_lines(analysis, info) if info else {}

            full_cfg = None
            if (
                wants["respond"]
                or wants["resource"]
                or wants["typestate"]
                or wants["span"]
            ):
                full_cfg = build_cfg(func, callee_suspends=suspends)
                stats["flow_cfgs_built"] += 1
                stats["flow_cfg_nodes"] += len(full_cfg.nodes)
                stats["flow_cfg_edges"] += full_cfg.edge_count()
                stats["flow_suspend_points"] += sum(
                    1 for n in full_cfg.stmt_nodes() if n.suspends
                )
                stats["flow_exit_paths"] += sum(
                    len(full_cfg.predecessors(exit_node.id))
                    for exit_node in full_cfg.exits()
                )
            if wants["respond"]:
                stats["flow_handlers_analyzed"] += 1
                findings.extend(check_respond(path, func, full_cfg, parks))
            if wants["resource"]:
                findings.extend(check_resource_paths(path, func, full_cfg))
            if wants["span"]:
                findings.extend(check_span_paths(path, func, full_cfg))
            if wants["typestate"]:
                findings.extend(check_typestate(path, func, full_cfg))
            if wants["lock"]:
                exits_cfg = build_cfg(
                    func, callee_suspends=suspends, implicit_exc=False
                )
                stats["flow_cfgs_built"] += 1
                findings.extend(check_lock_paths(path, func, exits_cfg))
    project.stats.update(stats)
    return findings
