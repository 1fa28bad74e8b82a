"""Diagnostic tooling (the paper's community-support lesson, section 2.2)."""

from .diagnostics import (
    cluster_report,
    fault_report,
    health_report,
    monitoring_report,
    process_report,
    profile_report,
    trace_report,
    xray_report,
)

__all__ = [
    "cluster_report",
    "process_report",
    "monitoring_report",
    "trace_report",
    "profile_report",
    "health_report",
    "fault_report",
    "xray_report",
]
