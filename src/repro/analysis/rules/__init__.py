"""mochi-lint's file-scope rule, the per-file context and AST helpers.

Importing this package registers MCH001 (:mod:`.determinism`), the one
file-scope rule; the other static rules are whole-program
(:mod:`repro.analysis.interproc`).  What MCH005, MCH006 and MCH013 once
read off the AST is checked by running the every-observer echo rig
(``tests/test_observer_memory.py``): a hook lets a poisoned argument
raise and issues no RPC, and the hot path builds no function or dict.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

__all__ = [
    "FileContext",
    "dotted_name",
    "call_name",
    "own_body_walk",
]

FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)

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
    """One parsed file, plus its node list, walked once per lint run and
    shared by the file rule and the call graph."""

    path: str
    source: str
    tree: ast.Module

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        """Parse ``source``; raises :class:`SyntaxError` like ``ast.parse``."""
        return cls(path, source, ast.parse(source, filename=path))

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the file, in ``ast.walk`` order."""
        return list(ast.walk(self.tree))


# Import the rule module for its registration side effect.
from . import determinism as _determinism  # noqa: E402,F401
