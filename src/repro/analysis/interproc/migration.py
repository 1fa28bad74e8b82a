"""Migration-coverage analysis (MCH061).

REMI migration moves a provider between processes by serializing its
state files and re-creating the provider on the destination.  Any
instance attribute the provider mutates at runtime but never feeds into
its ``migrate()`` path is silently dropped by a migration -- the classic
"works until the first live migration" bug, and exactly the gap that
de-risks ROADMAP item 4's persistent-backend migration.

For every class that *overrides* ``migrate`` (the base ``Provider``
raises ``NotImplementedError``, so an override is the opt-in marker for
REMI migratability) this pass computes:

* **runtime-mutable attributes** -- ``self.X`` assigned, augmented,
  subscript-assigned, deleted, or mutated via a container method in any
  method of the class *other than* ``__init__`` / ``migrate`` /
  ``checkpoint`` / ``restore`` (construction and the snapshot path
  itself are not runtime mutation);
* **covered attributes** -- ``self.X`` *read* anywhere in ``migrate``'s
  transitive same-class call closure (helpers like ``_flush_backend``
  count; calls leaving the class are the RPC layer's business).

Runtime-mutable attributes outside the covered set are MCH061 findings.
Only the class's own methods are scanned: inherited machinery (e.g. the
base class's ``destroy`` bookkeeping) is the base class's contract, not
this provider's snapshot.
"""

from __future__ import annotations

import ast

from ..findings import Finding, Severity
from ..registry import GROUP_PARTITION, RuleInfo, rule
from .callgraph import ClassInfo, ProjectIndex
from .partition import _MUTATOR_METHODS

__all__ = ["check_migration_coverage"]

#: methods whose writes are not "runtime mutation".
_NON_RUNTIME_METHODS = frozenset({"__init__", "migrate", "checkpoint", "restore"})


def _overrides_migrate(cls: ClassInfo) -> bool:
    return "migrate" in cls.methods and bool(cls.base_names)


def _self_attr(node: ast.expr) -> str | None:
    """``self.X`` -> ``X`` (one level only)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _written_attrs(body: list[ast.AST]) -> dict[str, int]:
    """self attributes written in a body -> first write line."""
    writes: dict[str, int] = {}

    def record(attr: str | None, line: int) -> None:
        if attr is not None and attr not in writes:
            writes[attr] = line

    for node in body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        elif isinstance(node, ast.Call):
            # self.X.append(...) and friends mutate the contents of X.
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                record(_self_attr(node.func.value), node.lineno)
            continue
        for target in targets:
            record(_self_attr(target), node.lineno)
            # self.X[key] = ... / del self.X[key] mutate X's contents.
            if isinstance(target, ast.Subscript):
                record(_self_attr(target.value), node.lineno)
    return writes


def _read_attrs(body: list[ast.AST]) -> set[str]:
    """self attributes read (Load context) anywhere in a body.

    Includes the receiver of ``self.X[...]`` and ``self.X.method()`` --
    feeding ``self.X`` to anything inside the snapshot path counts as
    covering it.
    """
    reads: set[str] = set()
    for node in body:
        attr = _self_attr(node)
        if attr is not None and isinstance(node.ctx, ast.Load):  # type: ignore[attr-defined]
            reads.add(attr)
    return reads


def _migrate_closure(index: ProjectIndex, cls: ClassInfo) -> list[str]:
    """``migrate`` plus transitively-called same-class-family methods."""
    family = {ancestor.qualname for ancestor in index.mro(cls)}
    start = cls.methods["migrate"].qualname
    seen = [start]
    queue = [start]
    while queue:
        current = queue.pop(0)
        func = index.functions.get(current)
        if func is None:
            continue
        for edge in func.edges:
            callee = index.functions.get(edge.callee)
            if callee is None or callee.cls is None:
                continue
            if callee.cls.qualname not in family:
                continue
            if edge.callee not in seen:
                seen.append(edge.callee)
                queue.append(edge.callee)
    return seen


@rule(
    RuleInfo(
        id="MCH061",
        name="migration-snapshot-coverage",
        group=GROUP_PARTITION,
        severity=Severity.WARNING,
        summary=(
            "REMI-migratable provider mutates instance state its migrate() "
            "path never reads; a migration drops it"
        ),
        rationale=(
            "REMI moves a provider by serializing what migrate() touches and "
            "rebuilding elsewhere; runtime state outside that path survives "
            "every test that doesn't migrate and vanishes the first time "
            "production does -- the exact risk ROADMAP item 4 must retire"
        ),
    ),
    scope="project",
)
def check_migration_coverage(project) -> list[Finding]:
    """MCH061: runtime state a provider's migrate() path never touches."""
    findings: list[Finding] = []
    index = project.index
    for qualname in sorted(index.classes):
        cls = index.classes[qualname]
        if not _overrides_migrate(cls):
            continue
        covered: set[str] = set()
        for member in _migrate_closure(index, cls):
            func = index.functions.get(member)
            if func is not None:
                covered |= _read_attrs(func.body)
        runtime_writes: dict[str, int] = {}
        for name in sorted(cls.methods):
            if name in _NON_RUNTIME_METHODS:
                continue
            for attr, line in sorted(_written_attrs(cls.methods[name].body).items()):
                if attr not in runtime_writes or line < runtime_writes[attr]:
                    runtime_writes[attr] = line
        for attr in sorted(runtime_writes):
            if attr in covered or attr.startswith("__"):
                continue
            findings.append(
                Finding(
                    "MCH061", Severity.WARNING, cls.path,
                    runtime_writes[attr],
                    f"migratable provider {cls.name!r} mutates "
                    f"'self.{attr}' at runtime but its migrate() path "
                    "never reads it; this state is dropped by a REMI "
                    "migration",
                )
            )
    return findings
