"""Shared helpers for the mochi-lint test modules."""

from __future__ import annotations

import os

from repro.analysis.engine import DEFAULT_ROOTS, iter_target_files, run_lint
from repro.analysis.rules import FileContext

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO, "tests", "fixtures")
#: The ``repro lint`` gate's roots, which the acceptance tests lint once.
LINT_ROOTS = [os.path.join(REPO, name) for name in DEFAULT_ROOTS]


def fixture_path(package: str, *names: str) -> str:
    """Path inside a fixture package."""
    root = os.path.join(FIXTURES, "interproc", package)
    if not os.path.isdir(root):
        raise AssertionError(f"no fixture package {package!r}")
    return os.path.join(root, *names)


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

