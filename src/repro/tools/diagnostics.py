"""Diagnostic reports.

Paper section 2.2 (lessons learned): "Mochi users must be able to
rapidly diagnose behavioral and performance problems on their own ...
we created easy-to-install Mochi packages, command-line diagnostic
tools, and monitoring infrastructure."

The ``repro`` command (:mod:`repro.cli`) prints its health and xray
scenario documents through :func:`health_report` and
:func:`xray_report`, the simulated equivalent of those command-line
tools.
"""

from __future__ import annotations

from typing import Any

from ..cluster import Cluster

__all__ = ["health_report", "xray_report"]


def health_report(target: Any, events: int = 10) -> str:
    """The mochi-health view: per-target health states, incidents with
    suspect/detection latency and MTTR, per-process SLO status and
    alerts, recoveries, and the tail of the flight recorder (``events``
    bounds how many recent events are shown).

    ``target`` is a :class:`~repro.cluster.Cluster` (its health plane is
    read) or a health document, the dict the ``health`` scenarios of
    :mod:`repro.scenarios` return.
    """
    if isinstance(target, Cluster):
        plane = target.health
        if plane is None:
            return "mochi-health: disabled (call cluster.enable_health() first)"
        slo_status, alerts = plane.slo_status()
        target = {
            "health": plane.health_doc(),
            "incidents": plane.incidents.to_json(),
            "slo_status": slo_status,
            "alerts": alerts,
            "dump": plane.recorder.to_json(),
        }
    health = target["health"]
    seed = f" (seed {target['seed']})" if "seed" in target else ""
    lines = [f"mochi-health @ t={health['time']:.6f}s{seed}"]
    states = health["states"]
    if states:
        lines.append("  health states:")
        for name in sorted(states):
            lines.append(f"    {name:<16} {states[name]}")
    else:
        lines.append("  health states: (no observations yet)")
    incidents = target["incidents"]["incidents"]
    opened = sum(1 for incident in incidents if incident["status"] == "open")
    lines.append(f"  incidents: {opened} open / {len(incidents) - opened} closed")
    for incident in incidents:
        status = (
            "OPEN" if incident["status"] == "open"
            else f"closed ({incident['resolution']})"
        )
        lines.append(
            f"    {incident['id']} [{status}] {incident['kind']}: "
            f"{incident['target']} opened@t={incident['opened_at']:.3f}s"
        )
        for key in ("suspect_latency", "detection_latency", "mttr"):
            if incident[key] is not None:
                lines.append(f"      {key.replace('_', ' ')}: {incident[key]:.3f}s")
    for process, slos in target.get("slo_status", {}).items():
        lines.append(f"  slo status [{process}]:")
        for slo in slos:
            lines.append(
                f"    {slo['slo']:<16} {slo['state']:<7} "
                f"burn_short={slo['burn_short']:.2f} "
                f"burn_long={slo['burn_long']:.2f} "
                f"budget={slo['budget_remaining'] * 100:.0f}%"
            )
    for alert in target.get("alerts", []):
        lines.append(
            f"  slo alert [{alert['process']}] {alert['slo']}: "
            f"{alert['from']} -> {alert['to']} "
            f"(burn_short={alert['burn_short']:.1f})"
        )
    for recovery in target.get("recoveries", []):
        lines.append(
            f"  recovery: {recovery['failed']} -> {recovery['replacement']} "
            f"in {recovery['duration']:.3f}s"
        )
    dump = target["dump"]
    tail = dump["events"][-events:] if events > 0 else []
    if tail:
        lines.append(f"  flight recorder (last {len(tail)} of {dump['recorded']}):")
        for event in tail:
            lines.append(
                f"    t={event['time']:.3f}s [{event['category']}] "
                f"{event['name']}: {event['target']}"
            )
    return "\n".join(lines)


def _attribution_lines(
    head: str, attribution: dict[str, Any], whatif: dict[str, Any], actions: int
) -> list[str]:
    """One tail attribution and its what-if ranking: the p50/p99 line,
    then the top ``actions`` segments and ranked actions."""
    lines = [
        f"  {head}p50={attribution['p50'] * 1e6:.2f}us "
        f"p99={attribution['p99'] * 1e6:.2f}us"
    ]
    for segment in attribution["segments"][:actions]:
        where = segment["pool"] or "-"
        lines.append(
            f"    excess {segment['excess'] * 1e6:>9.2f}us  "
            f"{segment['phase']:<12} {segment['process']} [{where}]"
        )
    for action in whatif["actions"][:actions]:
        lines.append(
            f"    what-if {action['predicted_improvement']:>6.1%} p99: "
            f"{action['action']} {action['target']} on {action['process']}"
        )
    return lines


def xray_report(target: dict[str, Any], actions: int = 3) -> str:
    """The mochi-xray view of the whole-run document an ``xray``
    scenario of :mod:`repro.scenarios` returns: tail attribution and
    what-if ranking, ``actions`` attribution segments / ranked actions
    shown."""
    lines = [
        f"mochi-xray: scenario {target['scenario']} (seed {target['seed']}), "
        f"{target['windows']} closed window(s)"
    ]
    lines += _attribution_lines(
        f"whole run: {target['requests']} request(s), ",
        target["attribution"], target["whatif"], actions,
    )
    return "\n".join(lines)
