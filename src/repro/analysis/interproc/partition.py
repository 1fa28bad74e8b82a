"""Partition-safety analysis (MCH060).

ROADMAP item 1 shards the simulation across OS processes, one partition
per component.  That refactor is only safe if no component reaches into
another component's mutable state except through the RPC layer -- the
same process-isolation discipline MPI malleability systems enforce when
ranks are reshaped at runtime.

This pass finds the violations today, while everything still shares one
address space and such writes merely *happen to work*:

* attribute writes on an imported module (``kernel.TICK = 5`` from a
  different component);
* attribute writes on a class imported from another component
  (``Provider.pool = ...``);
* mutations of an imported module-level container (``REGISTRY[x] = y``,
  ``REGISTRY.append(...)``) owned by another component.

A *component* is the first package level below ``repro`` (so
``repro.yokan.provider`` and ``repro.yokan.client`` are one component
and may share state -- they will land in the same partition).  Outside
the ``repro`` namespace (fixtures), the top-level package is the
component.  A loose script -- a module in no package, such as a
benchmark harness or an example driver -- is no component: it launches
the simulation rather than being sharded with it, so its writes (test
taps, monkeypatched probes) are not partition-boundary crossings.

Some global infrastructure is intentionally shared (and will need an
explicit replication story when partitioning lands).  Such a write is
accepted the way any finding is: an inline, justified
``# mochi-lint: disable=MCH060 -- why`` at the mutation site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from ..findings import Finding, Severity
from ..registry import GROUP_PARTITION, RuleInfo, rule
from ..rules import dotted_name
from .callgraph import ClassInfo, FunctionInfo, ModuleInfo, ProjectIndex

__all__ = ["check_partition_safety", "component_of"]

#: container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear",
        "add", "discard", "update", "setdefault", "popitem",
    }
)


def component_of(module: str) -> str:
    """Partition unit a module belongs to.

    ``repro.yokan.provider`` -> ``repro.yokan``; ``repro`` itself (the
    package root) stays ``repro``; a fixture package ``app.client`` ->
    ``app``.
    """
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return ".".join(parts[:2])
    return parts[0]


@dataclass
class MutationSite:
    """One cross-visible write to module- or class-level state."""

    target: str  #: ``owner_module:attr`` or ``owner_module.Class:attr``
    owner_module: str
    path: str
    line: int
    component: str  #: component performing the write
    detail: str  #: human-readable description of the write


def _collect_mutations(index: ProjectIndex) -> list[MutationSite]:
    sites: list[MutationSite] = []
    for qualname in sorted(index.functions):
        func = index.functions[qualname]
        if "." not in func.module and not func.path.endswith("__init__.py"):
            continue  # a loose script, not a component
        mod = index.modules[func.module]
        component = component_of(func.module)
        for node in func.body:
            sites.extend(_sites_for_node(index, mod, func, component, node))
    sites.sort(key=lambda s: (s.target, s.path, s.line))
    return sites


def _sites_for_node(
    index: ProjectIndex,
    mod: ModuleInfo,
    func: FunctionInfo,
    component: str,
    node: ast.AST,
) -> list[MutationSite]:
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    elif isinstance(node, ast.Call):
        site = _mutator_call_site(index, mod, func, component, node)
        return [site] if site else []

    sites: list[MutationSite] = []
    for target in targets:
        # NAME.attr = ... / del NAME.attr -- write through an import.
        if isinstance(target, ast.Attribute):
            site = _attribute_write_site(
                index, mod, func, component, target, node.lineno
            )
            if site:
                sites.append(site)
        # NAME[key] = ... / del NAME[key] -- container owned elsewhere.
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            site = _container_site(
                index, mod, func, component, target.value.id,
                node.lineno, f"{target.value.id}[...] assignment",
            )
            if site:
                sites.append(site)
    return sites


def _attribute_write_site(
    index: ProjectIndex,
    mod: ModuleInfo,
    func: FunctionInfo,
    component: str,
    target: ast.Attribute,
    line: int,
) -> Optional[MutationSite]:
    receiver = dotted_name(target.value)
    if receiver is None or receiver.split(".")[0] == "self":
        return None
    resolved = index.resolve_name(mod, receiver)
    if isinstance(resolved, ModuleInfo):
        return MutationSite(
            target=f"{resolved.name}:{target.attr}",
            owner_module=resolved.name,
            path=func.path,
            line=line,
            component=component,
            detail=f"sets module attribute {resolved.name}.{target.attr}",
        )
    if isinstance(resolved, ClassInfo):
        return MutationSite(
            target=f"{resolved.qualname}:{target.attr}",
            owner_module=resolved.module,
            path=func.path,
            line=line,
            component=component,
            detail=f"sets class attribute {resolved.qualname}.{target.attr}",
        )
    return None


def _container_site(
    index: ProjectIndex,
    mod: ModuleInfo,
    func: FunctionInfo,
    component: str,
    name: str,
    line: int,
    detail: str,
) -> Optional[MutationSite]:
    """A mutation of ``name`` when it is an imported module-level global."""
    imported = mod.import_froms.get(name)
    if imported is None:
        return None
    owner_name, _, attr = imported.rpartition(".")
    owner = index.modules.get(owner_name)
    if owner is None or attr not in owner.module_globals:
        return None
    return MutationSite(
        target=f"{owner.name}:{attr}",
        owner_module=owner.name,
        path=func.path,
        line=line,
        component=component,
        detail=detail,
    )


def _mutator_call_site(
    index: ProjectIndex,
    mod: ModuleInfo,
    func: FunctionInfo,
    component: str,
    node: ast.Call,
) -> Optional[MutationSite]:
    if not (
        isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.attr in _MUTATOR_METHODS
    ):
        return None
    return _container_site(
        index, mod, func, component, node.func.value.id, node.lineno,
        f"{node.func.value.id}.{node.func.attr}(...) mutates an "
        "imported container",
    )


@rule(
    RuleInfo(
        id="MCH060",
        name="cross-partition-mutation",
        group=GROUP_PARTITION,
        severity=Severity.ERROR,
        summary=(
            "module/class state mutated from a component that does not own "
            "it, without an RPC edge"
        ),
        rationale=(
            "ROADMAP item 1 shards the simulation across OS processes; a "
            "cross-component write that works in one address space becomes "
            "silent state divergence the day partitions stop sharing memory "
            "-- the process-isolation discipline MPI malleability systems "
            "must enforce when ranks are reshaped"
        ),
    ),
    scope="project",
)
def check_partition_safety(project) -> list[Finding]:
    """MCH060: state mutated across the future partition boundary."""
    findings: list[Finding] = []
    for site in _collect_mutations(project.index):
        owner_component = component_of(site.owner_module)
        if site.component == owner_component:
            continue
        findings.append(
            Finding(
                "MCH060", Severity.ERROR, site.path, site.line,
                f"component {site.component!r} {site.detail} owned by "
                f"component {owner_component!r} without an RPC edge; "
                "this state silently diverges once partitions run in "
                f"separate processes (target: {site.target!r})",
            )
        )
    return findings
