"""Shared helpers for the mochi-lint test modules."""

from __future__ import annotations

import ast
import os

from repro.analysis.engine import iter_target_files, run_lint
from repro.analysis.rules import FileContext

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO, "tests", "fixtures")
#: The default ``repro-lint`` roots, which the acceptance tests lint once.
LINT_ROOTS = [os.path.join(REPO, name) for name in ("src/repro", "examples", "benchmarks")]


def fixture_path(package: str, *names: str) -> str:
    """Path inside a fixture package (names are unique across layers)."""
    for layer in ("interproc", "flow"):
        root = os.path.join(FIXTURES, layer, package)
        if os.path.isdir(root):
            return os.path.join(root, *names)
    raise AssertionError(f"no fixture package {package!r}")


def parse_paths(*paths: str) -> list[FileContext]:
    """One :class:`FileContext` per Python file under ``paths``, sorted."""
    files = []
    for path in iter_target_files(paths):
        if path.endswith(".py"):
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            files.append(FileContext.parse(path, source))
    return files


def parse_fixture(*packages: str) -> list[FileContext]:
    return parse_paths(*(fixture_path(pkg) for pkg in packages))


def lint_fixture(*packages: str, **kwargs):
    """``run_lint`` over fixture packages (``select=``/``ignore=`` pass through)."""
    return run_lint([fixture_path(pkg) for pkg in packages], **kwargs)


def line_of(path: str, needle: str) -> int:
    """1-based line of the first occurrence of ``needle`` in ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if needle in line:
                return lineno
    raise AssertionError(f"{needle!r} not found in {path}")


def func_cfg(source: str, name: str, **kwargs):
    """Build the CFG of one function defined in ``source``."""
    from repro.analysis.flow.cfg import build_cfg

    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return build_cfg(node, **kwargs)
    raise AssertionError(f"no function {name!r} in source")
