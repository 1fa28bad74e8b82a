"""Critical-path extraction over the span tree and recorded edges.

Two complementary views of "what gated this request":

* :func:`critical_span_ids` / :func:`critical_chain` walk the PR-1 span
  tree (client op -> wire -> queue -> handler -> respond) and follow,
  at every node, the child whose *end* time is latest -- the child that
  gated the parent's completion.  The walk marks the longest blocking
  chain from the client ``forward`` span down to the leaf that finished
  last, which is the per-trace critical path at span granularity.

* The per-request **path records** that :func:`path_record` builds for
  the client's profiler refine the handler span with the causal edges
  sampled inside the server (pool scheduling waits, ``UltMutex``
  convoys, ``UltEvent`` parks); their ``segments`` lists are already in
  causal order, so a record *is* its own critical path.
  :func:`format_path_record` renders one.

Ties in the walk break toward the smallest span id, so the chain is
deterministic even when children end at the same simulated instant.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "critical_chain",
    "critical_span_ids",
    "format_path_record",
    "path_record",
]


def _pick(nodes: list[dict[str, Any]]) -> Optional[dict[str, Any]]:
    """The node that finished last (ties to the smallest span id)."""
    best = None
    for node in nodes:
        span = node["span"]
        key = (-span["end"], span["span_id"])
        if best is None or key < best[0]:
            best = (key, node)
    return best[1] if best else None


def critical_chain(spans: list[Any], trace_id: str) -> list[dict[str, Any]]:
    """The critical path of one trace as an ordered list of span JSON
    documents, root first.  Empty when the trace has no spans."""
    from ..exporters import build_trace_tree  # late: exporters imports us lazily

    roots = build_trace_tree(spans, trace_id)
    chain: list[dict[str, Any]] = []
    node = _pick(roots)
    while node is not None:
        chain.append(node["span"])
        node = _pick(node["children"])
    return chain


def critical_span_ids(spans: list[Any], trace_id: str) -> set[str]:
    """Span ids on the trace's critical path (for exporter highlighting)."""
    return {span["span_id"] for span in critical_chain(spans, trace_id)}


def path_record(
    request: Any, client: str, weight: int, stamps: tuple, end: float
) -> dict[str, Any]:
    """One sampled request's critical path: the profiler's five phase
    stamps ``(forward start, sent, received, ULT start, ULT end)`` cut
    at the causal edges the server appended to ``request._xray_edges``."""
    fwd_start, sent, received, ult_start, ult_end = stamps
    server = request.dst_address.rsplit("/", 1)[-1]
    segments = [
        {"process": client, "pool": "", "phase": "client_queue",
         "duration": sent - fwd_start},
        {"process": f"{client}->{server}", "pool": "wire", "phase": "network",
         "duration": received - sent},
    ]
    sched_pool = ""
    blocked = 0.0
    waits = []
    for kind, name, duration in request._xray_edges:
        if kind == "sched":
            # Only the dispatch wait is the "sched" segment; a requeue
            # after a lock/park wakeup is already inside that edge's
            # duration (waiters measure to re-run).
            if not sched_pool:
                sched_pool = name
            continue
        blocked += duration
        prefix = "mutex" if kind == "lock" else "event"
        waits.append({"process": server, "pool": f"{prefix}:{name}",
                      "phase": kind, "duration": duration})
    segments.append({"process": server, "pool": sched_pool, "phase": "sched",
                     "duration": ult_start - received})
    segments.extend(waits)
    segments.append({"process": server, "pool": sched_pool, "phase": "handler",
                     "duration": max(0.0, (ult_end - ult_start) - blocked)})
    segments.append({"process": f"{server}->{client}", "pool": "wire",
                     "phase": "respond", "duration": end - ult_end})
    return {
        "trace_id": request.trace_id,
        "span_id": request.span_id,
        "rpc": request.rpc_name,
        "provider": request.provider_id,
        "weight": weight,
        "client": client,
        "server": server,
        "start": fwd_start,
        "end": end,
        "total": end - fwd_start,
        "segments": segments,
    }


def format_path_record(record: dict[str, Any]) -> list[str]:
    """Render one recorded path as indented report lines."""
    lines = [
        "trace {trace_id} {rpc}/{provider} {client} -> {server}  "
        "total {total:.6f}s (weight {weight})".format(**record)
    ]
    for segment in record["segments"]:
        where = segment["pool"] or "-"
        lines.append(
            f"  {segment['phase']:<12} {segment['duration']:>10.6f}s"
            f"  {segment['process']} [{where}]"
        )
    return lines
