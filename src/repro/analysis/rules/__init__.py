"""mochi-lint rule catalog.

Importing this package registers every file-scope rule with the
registry.  The per-file context the rules look at and the AST helpers
they share live here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional

__all__ = [
    "FileContext",
    "dotted_name",
    "call_name",
    "own_body_walk",
    "is_ult_generator",
]

FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)

#: ULT command constructors: a generator that yields one of these is,
#: by construction, a ULT body.
ULT_COMMANDS = frozenset({"Compute", "Park", "UltSleep", "UltYield"})

#: Methods whose generators ULT code composes with ``yield from``.
ULT_DELEGATES = frozenset({"forward", "bulk_transfer", "acquire", "wait"})


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    return dotted_name(node.func)


def last_attr(node: ast.AST) -> Optional[str]:
    """The final attribute/name of a call target (``c`` for ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def own_body_walk(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own body, not entering nested function/class defs."""
    stack: list[ast.AST] = list(getattr(func, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, FunctionNode + (ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class FileContext:
    """One parsed file, plus the traversals every rule would otherwise
    repeat: the node list, the function list and each function's
    own-body node list are computed once per lint run and shared by the
    file rules, the call graph and the effect seed."""

    path: str
    source: str
    tree: ast.Module
    _bodies: dict[int, list[ast.AST]] = field(default_factory=dict, repr=False)

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        """Parse ``source``; raises :class:`SyntaxError` like ``ast.parse``."""
        return cls(path, source, ast.parse(source, filename=path))

    @cached_property
    def lines(self) -> list[str]:
        return self.source.splitlines()

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the file, in ``ast.walk`` order."""
        return list(ast.walk(self.tree))

    @cached_property
    def functions(self) -> list[ast.AST]:
        """Every function definition, nested ones included."""
        return [node for node in self.nodes if isinstance(node, FunctionNode)]

    def body(self, func: ast.AST) -> list[ast.AST]:
        """``own_body_walk(func)`` as a list, walked once per run."""
        nodes = self._bodies.get(id(func))
        if nodes is None:
            nodes = self._bodies[id(func)] = list(own_body_walk(func))
        return nodes


def is_ult_generator(body: Iterable[ast.AST]) -> bool:
    """True when the own-body nodes are a ULT body: they yield ULT
    commands, or delegate to runtime generators via yield-from."""
    for node in body:
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
            if last_attr(node.value.func) in ULT_COMMANDS:
                return True
        elif isinstance(node, ast.YieldFrom) and isinstance(node.value, ast.Call):
            if last_attr(node.value.func) in ULT_DELEGATES:
                return True
    return False


# Import the rule modules for their registration side effects.
from . import determinism as _determinism  # noqa: E402,F401
from . import monitoring as _monitoring  # noqa: E402,F401
from . import perf as _perf  # noqa: E402,F401
from . import scheduling as _scheduling  # noqa: E402,F401
