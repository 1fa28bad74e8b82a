"""Diagnostic reports.

Paper section 2.2 (lessons learned): "Mochi users must be able to
rapidly diagnose behavioral and performance problems on their own ...
we created easy-to-install Mochi packages, command-line diagnostic
tools, and monitoring infrastructure."

These helpers render the state of a cluster, a Bedrock-managed process,
or a statistics monitor as human-readable text -- the simulated
equivalent of those command-line tools.  The ``repro`` command
(:mod:`repro.cli`) prints its health and xray scenarios through
:func:`health_report` and :func:`xray_report`.
"""

from __future__ import annotations

from typing import Any

from ..bedrock.server import BedrockServer
from ..cluster import Cluster
from ..monitoring.stats_monitor import StatisticsMonitor
from ..observability.exporters import build_trace_tree, collect_spans
from ..observability.profile import PHASES, ContinuousProfiler
from ..observability.tracer import Tracer

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


def cluster_report(cluster: Cluster) -> str:
    """Topology + liveness overview."""
    lines = [f"cluster @ t={cluster.now:.6f}s"]
    lines.append(
        f"  nodes: {len(cluster.network.nodes)}  "
        f"processes: {len(cluster.network.processes)}  "
        f"messages: {cluster.network.messages_sent} sent / "
        f"{cluster.network.messages_dropped} dropped / "
        f"{cluster.network.bytes_sent} bytes"
    )
    for node_name in sorted(cluster.network.nodes):
        node = cluster.network.nodes[node_name]
        state = "up" if node.alive else "DEAD"
        lines.append(f"  node {node_name} [{state}]")
        for process in sorted(
            (p for p in cluster.network.processes.values() if p.node is node),
            key=lambda p: p.name,
        ):
            pstate = "up" if process.alive else "DEAD"
            lines.append(f"    process {process.name} [{pstate}] {process.address}")
    if cluster.faults.history:
        lines.append("  fault history:")
        for fault in cluster.faults.history:
            lines.append(f"    t={fault.time:.3f}s {fault.kind}: {fault.target}")
    return "\n".join(lines)


def process_report(bedrock: BedrockServer) -> str:
    """One Bedrock-managed process: runtime shape + providers + deps."""
    margo = bedrock.margo
    lines = [f"process {margo.process.name} ({margo.address})"]
    lines.append("  argobots:")
    for name, pool in sorted(margo.pools.items()):
        streams = ",".join(x.name for x in pool.xstreams) or "none"
        lines.append(
            f"    pool {name}: queued={pool.size} "
            f"pushed={pool.total_pushed} xstreams=[{streams}]"
        )
    for name, xstream in sorted(margo.xstreams.items()):
        lines.append(
            f"    xstream {name}: busy={xstream.busy_time:.6f}s "
            f"slices={xstream.slices_run}"
        )
    lines.append(
        f"  rpc: sent={margo.rpcs_sent} handled={margo.rpcs_handled} "
        f"inflight={margo.inflight_incoming}/{margo.inflight_outgoing}"
    )
    lines.append(f"  libraries: {dict(bedrock.library_of)}")
    lines.append("  providers:")
    for name, record in sorted(bedrock.records.items()):
        lines.append(
            f"    {name} (type={record.type_name} id={record.provider_id} "
            f"pool={record.pool})"
        )
        for dep_name, spec in record.dependencies.items():
            lines.append(f"      depends on {dep_name}: {spec}")
        holders = bedrock.dependents.get(name)
        if holders:
            lines.append(f"      depended on by: {sorted(holders)}")
    return "\n".join(lines)


def monitoring_report(monitor: StatisticsMonitor, top: int = 10) -> str:
    """Top RPCs by total target-side time (the "where does time go"
    question the paper's monitoring answers)."""
    doc = monitor.to_json()
    entries: list[tuple[float, str, dict[str, Any]]] = []
    for key, record in doc.get("rpcs", {}).items():
        total = 0.0
        count = 0
        for peer in record.get("target", {}).values():
            duration = peer.get("ult", {}).get("duration", {})
            total += duration.get("sum", 0.0)
            count += duration.get("num", 0)
        entries.append((total, record["name"], {"key": key, "count": count}))
    entries.sort(reverse=True)
    lines = [f"top {min(top, len(entries))} RPCs by server-side time:"]
    for total, name, info in entries[:top]:
        mean = total / info["count"] if info["count"] else 0.0
        lines.append(
            f"  {name:<24} calls={info['count']:<8} total={total * 1e6:10.2f}us "
            f"mean={mean * 1e6:8.2f}us  [{info['key']}]"
        )
    if "bulk" in doc:
        bulk = doc["bulk"]
        lines.append(
            f"  bulk transfers: n={bulk['duration']['num']} "
            f"bytes={int(bulk['size']['sum'])}"
        )
    return "\n".join(lines)


def profile_report(
    *targets: Any, last: "int | None" = None, waterfalls: int = 3
) -> str:
    """Continuous-profiling view: utilization, per-provider rates, the
    RPC latency decomposition, and recent request waterfalls.

    Accepts Margo instances (their attached profiler is used) or
    :class:`ContinuousProfiler` objects directly.  ``last`` bounds how
    many closed windows feed the rollups (default: the whole ring);
    ``waterfalls`` how many recent complete waterfalls are rendered per
    process.
    """
    lines: list[str] = []
    for target in targets:
        profiler = (
            target
            if isinstance(target, ContinuousProfiler)
            else getattr(target, "profiler", None)
        )
        if profiler is None:
            name = getattr(getattr(target, "process", None), "name", str(target))
            lines.append(f"process {name}: profiling disabled")
            continue
        doc = profiler.profile(last=last)
        windows = doc["windows"]
        lines.append(
            f"process {doc['process']}: window={doc['window']}s, "
            f"{len(windows)} window(s) shown"
        )
        if not windows:
            continue
        latest = windows[-1]
        for xname in sorted(latest["xstreams"]):
            sample = latest["xstreams"][xname]
            lines.append(
                f"  xstream {xname}: {sample['utilization'] * 100:5.1f}% busy "
                f"(slices={sample['slices']:.0f} ults={sample['ults_finished']:.0f})"
            )
        for pname in sorted(latest["pools"]):
            sample = latest["pools"][pname]
            lines.append(
                f"  pool {pname}: depth={sample['depth']:.0f} "
                f"pushed={sample['pushed']:.0f} popped={sample['popped']:.0f}"
            )
        span = windows[-1]["end"] - windows[0]["start"]
        provider_totals: dict[str, dict[str, float]] = {}
        for window in windows:
            for key, entry in window["providers"].items():
                acc = provider_totals.setdefault(
                    key, {"requests": 0, "bytes_in": 0, "bytes_out": 0}
                )
                for field in acc:
                    acc[field] += entry[field]
        if provider_totals:
            lines.append("  providers (over shown windows):")
            for key in sorted(provider_totals):
                acc = provider_totals[key]
                rate = acc["requests"] / span if span > 0 else 0.0
                lines.append(
                    f"    {key:<16} requests={acc['requests']:<6.0f} "
                    f"rate={rate:8.1f}/s in={acc['bytes_in']:.0f}B "
                    f"out={acc['bytes_out']:.0f}B"
                )
        # Phase means per series, in causal phase order (the flamegraph
        # rollup: where each RPC's time goes, summed over windows).
        per_series: dict[str, dict[str, dict[str, float]]] = {}
        for window in windows:
            for rpc_key, phases in window["rpc"].items():
                series = per_series.setdefault(rpc_key, {})
                for phase, agg in phases.items():
                    acc = series.setdefault(phase, {"count": 0, "sum": 0.0, "p95": 0.0})
                    acc["count"] += agg["count"]
                    acc["sum"] += agg["sum"]
                    acc["p95"] = max(acc["p95"], agg["p95"])
        if per_series:
            lines.append("  latency decomposition (mean per phase):")
            for rpc_key in sorted(per_series):
                series = per_series[rpc_key]
                parts = []
                for phase in (*PHASES, "sched"):
                    acc = series.get(phase)
                    if acc and acc["count"]:
                        parts.append(f"{phase}={acc['sum'] / acc['count'] * 1e6:.2f}us")
                lines.append(f"    {rpc_key}: " + " ".join(parts))
        recent = list(profiler.waterfalls)[-waterfalls:]
        if recent:
            lines.append(f"  last {len(recent)} waterfall(s):")
            for waterfall in recent:
                total = waterfall["end"] - waterfall["start"]
                lines.append(
                    f"    {waterfall['rpc']}/{waterfall['provider']} "
                    f"{total * 1e6:.2f}us @t={waterfall['start']:.6f}s"
                )
                for phase in waterfall["phases"]:
                    duration = phase["end"] - phase["start"]
                    width = int(round(40 * duration / total)) if total > 0 else 0
                    bar = "#" * max(width, 1 if duration > 0 else 0)
                    lines.append(
                        f"      {phase['phase']:<12} {duration * 1e6:9.2f}us |{bar}"
                    )
    return "\n".join(lines)


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


def fault_report(cluster: Cluster) -> str:
    """Injected faults correlated with their observed consequences.

    Each :class:`~repro.sim.faults.FaultRecord` is the ground truth;
    when the health plane is enabled, the matching incident supplies
    what the cluster *observed* -- suspicion, detection, election and
    recovery events, detection latency and MTTR."""
    history = cluster.faults.history
    if not history:
        return "fault report: no faults injected"
    plane = getattr(cluster, "health", None)
    incidents_by_target: dict[str, list[Any]] = {}
    if plane is not None:
        for incident in plane.incidents.incidents:
            incidents_by_target.setdefault(incident.target, []).append(incident)
    lines = [f"fault report: {len(history)} fault(s) injected"]
    for fault in history:
        lines.append(f"  t={fault.time:.3f}s {fault.kind}: {fault.target}")
        candidates = incidents_by_target.get(fault.target, [])
        incident = next(
            (i for i in candidates if abs(i.opened_at - fault.time) < 1e-9),
            None,
        )
        if incident is None:
            if plane is not None and fault.kind in ("process", "node"):
                lines.append("    (no incident recorded)")
            continue
        status = "OPEN" if incident.open else f"closed: {incident.resolution}"
        lines.append(f"    incident {incident.incident_id} [{status}]")
        if incident.suspect_latency is not None:
            lines.append(
                f"      suspected after {incident.suspect_latency:.3f}s"
            )
        if incident.detection_latency is not None:
            lines.append(
                f"      detected after {incident.detection_latency:.3f}s"
            )
        if incident.mttr is not None:
            lines.append(f"      recovered after {incident.mttr:.3f}s (MTTR)")
        for event in incident.events:
            detail = {
                k: v for k, v in event.items() if k not in ("time", "kind")
            }
            lines.append(
                f"      t={event['time']:.3f}s {event['kind']}: {detail}"
            )
    if plane is None:
        lines.append("  (health plane disabled: no incident correlation)")
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


def _last(ring: Any, n: "int | None") -> list:
    """The last ``n`` items of ``ring`` (all of them when ``n`` is None)."""
    items = list(ring)
    return items if n is None else items[len(items) - min(n, len(items)):]


def xray_report(
    target: Any, last: "int | None" = 3, actions: int = 3, paths: int = 3
) -> str:
    """The mochi-xray view: per-window tail attribution, what-if
    rankings, and recent per-request critical paths.

    ``target`` is a :class:`~repro.cluster.Cluster` (its shared plane is
    used), an :class:`~repro.observability.xray.XrayPlane` directly, or
    the whole-run document an ``xray`` scenario of :mod:`repro.scenarios`
    returns; ``last`` bounds the windows shown, ``actions`` the
    attribution segments / ranked actions per window, ``paths`` the
    recent path records rendered in full.
    """
    if isinstance(target, dict):
        lines = [
            f"mochi-xray: scenario {target['scenario']} (seed {target['seed']}), "
            f"{target['windows']} closed window(s)"
        ]
        lines += _attribution_lines(
            f"whole run: {target['requests']} request(s), ",
            target["attribution"], target["whatif"], actions,
        )
        return "\n".join(lines)

    from ..observability.xray.critical_path import format_path_record

    plane = target.xray_plane() if isinstance(target, Cluster) else target
    if plane is None:
        return (
            "mochi-xray: disabled (no process ran with "
            '{"observability": {"xray": true}})'
        )
    lines = [
        f"mochi-xray: {len(plane.windows)} closed window(s), "
        f"{len(plane.recent)} recent path(s)"
    ]
    for window in _last(plane.windows, last):
        lines += _attribution_lines(
            f"window {window['index']} "
            f"[{window['start']:.3f}s..{window['end']:.3f}s]: "
            f"{window['requests']} request(s), "
            f"{window['dropped_paths']} dropped, ",
            window["attribution"], window["whatif"], actions,
        )
    for record in _last(plane.recent, paths):
        lines.extend("  " + line for line in format_path_record(record))
    return "\n".join(lines)


def trace_report(
    *tracers: Tracer, trace_id: "str | None" = None, limit: int = 20
) -> str:
    """Causal trace trees, rendered as indented text.

    Accepts any number of tracers (typically ``cluster.tracers()``) and
    merges their spans, so cross-process wire spans pair up.  Shows the
    ``limit`` longest traces (all of them when ``trace_id`` is given).
    """
    spans = collect_spans(*tracers)
    if not spans:
        return "no spans recorded (is tracing enabled?)"
    by_trace: dict[str, list] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    if trace_id is not None:
        if trace_id not in by_trace:
            return f"no trace {trace_id!r} (known: {sorted(by_trace)[:10]})"
        selected = [trace_id]
    else:
        # Longest root-to-end traces first; ties broken by id for
        # deterministic output.
        selected = sorted(
            by_trace,
            key=lambda t: (-(max(s.end for s in by_trace[t])
                            - min(s.start for s in by_trace[t])), t),
        )[:limit]
    lines = [f"{len(by_trace)} trace(s), {len(spans)} span(s)"]

    def render(node: dict, depth: int) -> None:
        doc = node["span"]
        duration_us = (doc["end"] - doc["start"]) * 1e6
        lines.append(
            f"  {'  ' * depth}{doc['category']:<8} {doc['name']:<24} "
            f"[{doc['process']}] {duration_us:9.2f}us  ({doc['span_id']})"
        )
        for child in node["children"]:
            render(child, depth + 1)

    # Imported lazily: the xray package is optional machinery on top of
    # the tracer and must not become a hard import of the tools module.
    from ..observability.xray.critical_path import critical_chain

    for tid in selected:
        trace_spans = by_trace[tid]
        total_us = (
            max(s.end for s in trace_spans) - min(s.start for s in trace_spans)
        ) * 1e6
        lines.append(f"trace {tid}: {len(trace_spans)} spans, {total_us:.2f}us")
        for root in build_trace_tree(spans, tid):
            render(root, 0)
        chain = critical_chain(spans, tid)
        if chain:
            gated_us = sum((s["end"] - s["start"]) for s in chain) * 1e6
            steps = " > ".join(f"{s['category']}:{s['name']}" for s in chain)
            lines.append(
                f"  critical path: {len(chain)}/{len(trace_spans)} spans, "
                f"{gated_us:.2f}us gated -- {steps}"
            )
    return "\n".join(lines)
