"""Diagnostic reports.

Paper section 2.2 (lessons learned): "Mochi users must be able to
rapidly diagnose behavioral and performance problems on their own ...
we created easy-to-install Mochi packages, command-line diagnostic
tools, and monitoring infrastructure."

These helpers render the state of a cluster, a Bedrock-managed process,
or a statistics monitor as human-readable text -- the simulated
equivalent of those command-line tools.
"""

from __future__ import annotations

from typing import Any

from ..analysis import sanitize as _sanitize
from ..analysis.config_check import validate_config_doc, validate_config_file
from ..analysis.findings import format_findings
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
    "lint_report",
    "config_report",
    "race_report",
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


def lint_report(*paths: str) -> str:
    """Static-analysis health of a source tree (the ``repro-lint`` view).

    Runs the full mochi-lint pass (every static rule plus Bedrock's
    boot checks for any config JSON encountered) over
    ``paths`` and appends whatever the runtime sanitizer has recorded so
    far, so one report answers "is this deployment clean?" across all
    three passes.
    """
    # Imported lazily: only this report needs the lint engine.
    from ..analysis.engine import run_lint

    findings = run_lint(paths or ("src", "examples", "benchmarks")).findings
    findings = findings + list(_sanitize.violations)
    if not findings:
        return "mochi-lint: clean"
    by_severity: dict[str, int] = {}
    for finding in findings:
        by_severity[finding.severity] = by_severity.get(finding.severity, 0) + 1
    summary = ", ".join(f"{n} {sev}" for sev, n in sorted(by_severity.items()))
    return f"mochi-lint: {len(findings)} finding(s) ({summary})\n" + format_findings(
        findings
    )


def race_report(seeds: int = 8) -> str:
    """Concurrency-correctness health of the example services.

    Runs the full mochi-race suite -- the happens-before engine and the
    lock-order graph watch every scenario while the schedule explorer
    re-runs it under ``seeds`` seeded ready-queue perturbations -- and
    renders one line per scenario plus any MCH03x/MCH04x findings.
    """
    # Imported lazily: the scenarios pull in the full runtime stack.
    from ..analysis.race.scenarios import run_race_suite

    lines: list[str] = []
    findings, reports = run_race_suite(seeds=seeds, emit=lines.append)
    total_runs = sum(len(r.runs) for r in reports)
    if not findings:
        lines.append(
            f"mochi-race: clean ({len(reports)} scenario(s), "
            f"{total_runs} perturbed runs)"
        )
        return "\n".join(lines)
    lines.append(f"mochi-race: {len(findings)} finding(s)")
    lines.append(format_findings(findings))
    return "\n".join(lines)


def health_report(cluster: Cluster, events: int = 10) -> str:
    """The mochi-health view: per-target health states, phi levels,
    open incidents, per-process SLO status, and the tail of the flight
    recorder (``events`` bounds how many recent events are shown)."""
    plane = getattr(cluster, "health", None)
    if plane is None:
        return "mochi-health: disabled (call cluster.enable_health() first)"
    doc = plane.health_doc()
    lines = [f"mochi-health @ t={doc['time']:.6f}s"]
    states = doc["states"]
    if states:
        lines.append("  health states:")
        for target in sorted(states):
            phi = doc["phi"].get(target)
            suffix = f"  phi={phi['phi']:.2f}" if phi else ""
            lines.append(f"    {target:<16} {states[target]}{suffix}")
    else:
        lines.append("  health states: (no observations yet)")
    open_incidents = plane.incidents.open_incidents()
    closed = [i for i in plane.incidents.incidents if not i.open]
    lines.append(
        f"  incidents: {len(open_incidents)} open / {len(closed)} closed"
    )
    for incident in plane.incidents.incidents:
        status = "OPEN" if incident.open else f"closed ({incident.resolution})"
        lines.append(
            f"    {incident.incident_id} [{status}] {incident.kind}: "
            f"{incident.target} opened@t={incident.opened_at:.3f}s"
        )
        if incident.detection_latency is not None:
            lines.append(
                f"      detection latency: {incident.detection_latency:.3f}s"
            )
        if incident.mttr is not None:
            lines.append(f"      mttr: {incident.mttr:.3f}s")
    for name in sorted(cluster.margos):
        engine = cluster.margos[name].slo_engine
        if engine is None:
            continue
        status = engine.status()
        lines.append(f"  slo status [{name}]:")
        for slo in status["slos"]:
            lines.append(
                f"    {slo['slo']:<16} {slo['state']:<7} "
                f"burn_short={slo['burn_short']:.2f} "
                f"burn_long={slo['burn_long']:.2f} "
                f"budget={slo['budget_remaining'] * 100:.0f}%"
            )
    tail = list(plane.recorder.events)[-events:]
    if tail:
        lines.append(f"  flight recorder (last {len(tail)} of "
                     f"{plane.recorder.recorded}):")
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


def config_report(config: "dict[str, Any] | str | None", name: str = "<config>") -> str:
    """Check one Margo/Bedrock document and render the verdict.

    ``config`` may be a parsed dict, JSON text, or a path to a ``.json``
    file.  This is the same validation :func:`repro.bedrock.boot_process`
    applies before booting, exposed as a report for interactive use.
    """
    if isinstance(config, str) and config.lstrip()[:1] not in ("{", "["):
        findings = validate_config_file(config)
        name = config
    else:
        import json

        doc = json.loads(config) if isinstance(config, str) else config
        findings = validate_config_doc(doc, path=name)
    if not findings:
        return f"{name}: config OK"
    return f"{name}: {len(findings)} problem(s)\n" + format_findings(findings)


def xray_report(
    target: Any, last: "int | None" = 3, actions: int = 3, paths: int = 3
) -> str:
    """The mochi-xray view: per-window tail attribution, what-if
    rankings, and recent per-request critical paths.

    ``target`` is a :class:`~repro.cluster.Cluster` (its shared plane is
    used) or an :class:`~repro.observability.xray.XrayPlane` directly;
    ``last`` bounds the windows shown, ``actions`` the attribution
    segments / ranked actions per window, ``paths`` the recent path
    records rendered in full.
    """
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
    for window in plane.attribution(last=last):
        attribution = window["attribution"]
        lines.append(
            f"  window {window['index']} "
            f"[{window['start']:.3f}s..{window['end']:.3f}s]: "
            f"{window['requests']} request(s), "
            f"{window['dropped_paths']} dropped, "
            f"p50={attribution['p50'] * 1e6:.2f}us "
            f"p99={attribution['p99'] * 1e6:.2f}us"
        )
        for segment in attribution["segments"][:actions]:
            where = segment["pool"] or "-"
            lines.append(
                f"    excess {segment['excess'] * 1e6:>9.2f}us  "
                f"{segment['phase']:<12} {segment['process']} [{where}]"
            )
        for action in window["whatif"]["actions"][:actions]:
            lines.append(
                f"    what-if {action['predicted_improvement']:>6.1%} p99: "
                f"{action['action']} {action['target']} on {action['process']}"
            )
    for record in plane.critical_paths(last=paths):
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
