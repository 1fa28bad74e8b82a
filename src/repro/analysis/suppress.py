"""Inline suppression comments.

Two forms, both requiring a justification after ``--``:

* line-scoped::

      t0 = time.perf_counter()  # mochi-lint: disable=MCH001 -- wall-clock harness

* file-scoped (anywhere in the file, conventionally at the top)::

      # mochi-lint: disable-file=MCH001 -- this benchmark measures real time

A suppression with no justification is itself a finding (``MCH091``),
and so is one naming an id no static check reports (a retired rule, a
typo, a runtime-only id such as ``MCH012``): it would silence nothing.
The meta rules ``MCH090``/``MCH091`` can never be suppressed --
otherwise one bare comment could turn the whole gate off.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .findings import Finding
from .registry import BARE_SUPPRESSION

__all__ = ["Suppressions", "parse_suppressions"]

_PATTERN = re.compile(
    r"#\s*mochi-lint:\s*(?P<scope>disable-file|disable)\s*=\s*"
    r"(?P<ids>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
    r"(?:\s*--\s*(?P<why>\S.*?))?\s*$"
)

#: Rules that govern the suppression machinery itself.
UNSUPPRESSABLE = frozenset({"MCH090", "MCH091"})


@dataclass
class Suppressions:
    """Parsed suppressions for one file."""

    #: rule ids disabled for the whole file.
    file_ids: set[str] = field(default_factory=set)
    #: line number -> rule ids disabled on that line.
    line_ids: dict[int, set[str]] = field(default_factory=dict)
    #: findings produced by the suppression comments themselves.
    findings: list[Finding] = field(default_factory=list)

    def is_suppressed(self, finding: Finding) -> bool:
        if finding.rule_id in UNSUPPRESSABLE:
            return False
        if finding.rule_id in self.file_ids:
            return True
        return finding.rule_id in self.line_ids.get(finding.line, ())


def parse_suppressions(source: str, path: str, reportable: set[str]) -> Suppressions:
    """Extract every suppression comment from ``source``; ``reportable``
    is the set of ids the static checks report."""
    result = Suppressions()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PATTERN.search(line)
        if match is None:
            continue
        ids = {part.strip() for part in match.group("ids").split(",")}
        stale = sorted(ids - reportable)
        problem = None
        if not match.group("why"):
            problem = (
                f"suppression of {sorted(ids)} has no justification; "
                "write `# mochi-lint: disable=... -- <why this is safe>`"
            )
        elif stale:
            problem = (
                f"suppression of {stale} names no rule a static check "
                "reports; delete it"
            )
        if problem is not None:
            result.findings.append(
                Finding(
                    rule_id=BARE_SUPPRESSION.id,
                    severity=BARE_SUPPRESSION.severity,
                    path=path,
                    line=lineno,
                    message=problem,
                )
            )
            continue
        if match.group("scope") == "disable-file":
            result.file_ids |= ids
        else:
            result.line_ids.setdefault(lineno, set()).update(ids)
    return result
