"""Per-request critical paths.

The per-request **path records** that :func:`path_record` builds for
the client's profiler refine the handler span with the causal edges
sampled inside the server (pool scheduling waits, ``UltMutex``
convoys, ``UltEvent`` parks); their ``segments`` lists are already in
causal order, so a record *is* its own critical path.
"""

from __future__ import annotations

from typing import Any

__all__ = ["path_record"]


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
