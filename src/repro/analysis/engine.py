"""The mochi-lint engine: one pipeline from paths to findings.

:func:`run_lint` parses every file once, runs the file-scope rules on
each file and the project-scope rules on the whole (building the shared
call graph only when a selected rule needs it),
then applies one select/ignore filter, one suppression pass and one
sort.  :func:`lint_source` is the same pipeline over a one-file project,
so every rule can be exercised on a snippet.

Directories are walked in sorted order and rules run in id order, so
the finding list is deterministic -- the linter holds itself to the
invariant it enforces.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

from . import interproc, rules  # noqa: F401 - register the static rules
from .config_check import validate_config_file  # also registers MCH020
from .findings import Finding, Severity
from .interproc.callgraph import ProjectIndex, build_project
from .race import hooks as _race_hooks  # noqa: F401 - registers MCH03x/MCH04x
from .registry import PARSE_ERROR, Rule, all_rules, rule_catalog, static_ids
from .rules import FileContext
from .suppress import UNSUPPRESSABLE, parse_suppressions

__all__ = [
    "DEFAULT_ROOTS",
    "lint_source",
    "iter_target_files",
    "run_lint",
    "LintResult",
    "Project",
]

#: The CI gate's roots, relative to the repository root: what
#: ``repro lint`` checks when given no paths.
DEFAULT_ROOTS = ("src/repro", "examples", "benchmarks", "tests")

#: Directory names never descended into.  ``fixtures`` holds lint-test
#: inputs that are deliberately broken.
_SKIP_DIRS = frozenset(
    {
        ".git",
        "__pycache__",
        ".pytest_cache",
        "node_modules",
        ".venv",
        "results",
        "fixtures",
    }
)


class Project:
    """What a project-scope rule sees: every parsed file plus the
    whole-program facts, built on first use and shared by all rules."""

    def __init__(self, files: list[FileContext]) -> None:
        self.files = files
        #: coverage counters the rules report for ``--stats``.
        self.stats: dict = {}

    @cached_property
    def index(self) -> ProjectIndex:
        return build_project(self.files)


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding]
    #: coverage counters and the ``seconds_*`` split of the run.
    stats: dict = field(default_factory=dict)


def _now() -> float:
    return time.perf_counter()  # mochi-lint: disable=MCH001 -- --stats reports the linter's own host cost; nothing simulated reads it


def _select_rules(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> tuple[list[Rule], Callable[[str], bool]]:
    """The rules to run and the finding filter for ``select``/``ignore``.

    An id the catalog does not know is an error, not an empty selection:
    a typo'd gate must not be green.
    """
    wanted = set(select) if select else None
    dropped = set(ignore) if ignore else set()
    unknown = ((wanted or set()) | dropped) - {info.id for info in rule_catalog()}
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {', '.join(sorted(unknown))}; "
            "see --list-rules for the catalog"
        )

    def keep(rule_id: str) -> bool:
        return (wanted is None or rule_id in wanted) and rule_id not in dropped

    return [r for r in all_rules() if any(keep(i.id) for i in r.infos)], keep


def _lint(
    sources: list[tuple[str, str]],
    findings: list[Finding],
    selected: list[Rule],
    keep: Callable[[str], bool],
) -> LintResult:
    """The pipeline over ``(path, source)`` pairs; ``findings`` carries
    what the caller already found outside it (config documents)."""
    file_rules = [r for r in selected if r.scope == "file"]
    project_rules = [r for r in selected if r.scope == "project"]

    started = _now()
    files: list[FileContext] = []
    suppressions = {}
    reportable = static_ids()
    for path, source in sources:
        suppressions[path] = parse_suppressions(source, path, reportable)
        findings.extend(suppressions[path].findings)
        try:
            files.append(FileContext.parse(path, source))
        except SyntaxError as err:
            findings.append(
                Finding(
                    rule_id=PARSE_ERROR.id,
                    severity=Severity.ERROR,
                    path=path,
                    line=err.lineno or 0,
                    message=f"syntax error: {err.msg}",
                )
            )
    parsed = _now()
    for ctx in files:
        for rule in file_rules:
            findings.extend(rule.check(ctx))
    file_done = _now()
    project = Project(files)
    if project_rules:
        project.stats.update(vars(project.index.stats))  # builds the index, once
    built = _now()
    for rule in project_rules:
        findings.extend(rule.check(project))
    project_done = _now()

    kept = [
        f
        for f in findings
        if (f.rule_id in UNSUPPRESSABLE or keep(f.rule_id))
        and not (f.path in suppressions and suppressions[f.path].is_suppressed(f))
    ]
    kept.sort(key=lambda f: (f.path, f.line, f.rule_id, f.message))
    stats = dict(
        project.stats,
        seconds_parse=round(parsed - started, 3),
        seconds_file_rules=round(file_done - parsed, 3),
        seconds_index=round(built - file_done, 3),
        seconds_project_rules=round(project_done - built, 3),
    )
    return LintResult(findings=kept, stats=stats)


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Lint Python source text as a one-file project."""
    return _lint([(path, source)], [], *_select_rules(select, ignore)).findings


def iter_target_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of lintable files."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path!r}")
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
            for name in sorted(files):
                if name.endswith((".py", ".json")):
                    yield os.path.join(root, name)


def run_lint(
    paths: Iterable[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint every Python file and config document under ``paths``:
    ``.py`` through the rule pipeline, ``.json`` through the boot
    path's own configuration checks (non-config JSON is skipped)."""
    selected, keep = _select_rules(select, ignore)
    sources: list[tuple[str, str]] = []
    findings: list[Finding] = []
    for path in iter_target_files(paths):
        if path.endswith(".json"):
            findings.extend(validate_config_file(path, only_configs=True))
        else:
            with open(path, "r", encoding="utf-8") as handle:
                sources.append((path, handle.read()))
    return _lint(sources, findings, selected, keep)
