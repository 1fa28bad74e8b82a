"""Findings: what every mochi-lint pass (static, config, runtime) emits.

A :class:`Finding` is one violation of one rule at one location.  The
same structure is shared by the AST linter, the configuration
check, and the runtime sanitizer, so tooling (CLI, CI,
diagnostics reports) renders all three uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Finding", "Severity", "format_findings"]


class Severity:
    """Finding severities."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule_id: str
    severity: str
    path: str
    line: int
    message: str
    #: Which pass produced it: "static", "config", or "runtime".
    source: str = "static"
    #: Optional structured context (e.g. the offending config key).
    context: dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        location = f"{self.path}:{self.line}" if self.line else self.path
        return f"{location}: {self.rule_id} [{self.severity}] {self.message}"

    def to_json(self) -> dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "source": self.source,
        }


def format_findings(findings: list[Finding]) -> str:
    """Render findings one per line, sorted by (path, line, rule)."""
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.rule_id))
    return "\n".join(f.format() for f in ordered)
