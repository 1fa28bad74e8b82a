"""Diagnostic tooling (the paper's community-support lesson, section 2.2)."""

from .diagnostics import health_report, xray_report

__all__ = ["health_report", "xray_report"]
