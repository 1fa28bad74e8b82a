"""The xray recording plane: causal edges -> path records -> windows.

Architecture mirrors the health plane (PR 6): one kernel-shared
:class:`XrayPlane` per simulation (attached as ``kernel.xray_plane``)
aggregates what every endpoint records, and one per-Margo
:class:`XrayRecorder` -- an ordinary monitor -- assembles path records
on the client side when a sampled request completes.

Recording rides the profiler's every-Nth ``SAMPLE_STAMP`` decision
end to end:

* ``on_forward_start`` (client): if the request is sampled, attach an
  empty ``_xray_edges`` list to it.  The list's *existence* is the only
  gate every downstream hook checks, so sampled-out requests cost the
  hot paths nothing beyond the checks they already paid for profiling.
* server-side hot paths append ``(kind, name, duration)`` edge tuples:
  ``("sched", pool, wait)`` from the profiler's pool-pop hook,
  ``("lock", mutex, wait)`` from a contended ``UltMutex.acquire``,
  ``("park", event, wait)`` from ``UltEvent.wait``.  The request object
  crosses the simulated wire by reference, so the client sees them.
* ``on_response_received`` (client): combine the profiler's cross-
  process phase stamps with the collected edges into one **path
  record** -- the request's critical path, segments in causal order --
  and hand it to the plane.

At every closed profiler window the plane runs tail-latency
attribution (:func:`~.attribution.attribute_paths`) and the what-if
engine (:func:`~.whatif.what_if`) over the window's records and
appends the resulting document to a bounded ring, which Bedrock
queries read as ``$__xray__``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from ..profile.profiler import HISTORY, SAMPLE_STAMP
from .attribution import attribute_paths
from .whatif import what_if

__all__ = ["EDGES_ATTR", "XrayPlane", "XrayRecorder"]

#: Attribute holding the per-request causal-edge list.  Present on a
#: request if and only if the request is sampled *and* some xray
#: recorder saw it leave a client -- the single gate every edge source
#: checks before paying any recording cost.
EDGES_ATTR = "_xray_edges"

#: Path records a window analyses (the overflow is counted) and recent
#: records kept for ``$__xray__.paths``.
MAX_PATHS = 256


class XrayPlane:
    """Kernel-shared sink for path records + per-window analyses.

    Bounded everywhere: at most :data:`MAX_PATHS` records per window
    (the overflow is counted, never silently dropped), as many recent
    records for ``$__xray__.paths``, and as many closed windows as the
    profilers keep.
    """

    def __init__(self, kernel: Any) -> None:
        self.kernel = kernel
        #: Most recent complete path records (survives window closes).
        self.recent: deque[dict[str, Any]] = deque(maxlen=MAX_PATHS)
        #: Closed-window analysis documents.
        self.windows: deque[dict[str, Any]] = deque(maxlen=HISTORY)
        self._window_paths: list[dict[str, Any]] = []
        self._window_drops = 0
        self._closed_through = -1

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add_path(self, record: dict[str, Any]) -> None:
        self.recent.append(record)
        if len(self._window_paths) < MAX_PATHS:
            self._window_paths.append(record)
        else:
            self._window_drops += 1

    def close_window(self, index: int, start: float, end: float) -> Optional[dict]:
        """Analyze and close one profiler window.  Every endpoint's
        profiler ticks the same aligned boundaries, so this is
        idempotent per index: the first caller closes, the rest no-op."""
        if index <= self._closed_through:
            return None
        self._closed_through = index
        paths, self._window_paths = self._window_paths, []
        drops, self._window_drops = self._window_drops, 0
        attribution = attribute_paths(paths)
        doc = {
            "index": index,
            "start": start,
            "end": end,
            "requests": len(paths),
            "dropped_paths": drops,
            "attribution": attribution,
            "whatif": what_if(paths, attribution),
        }
        self.windows.append(doc)
        return doc

    # ------------------------------------------------------------------
    # queries (served by Bedrock)
    # ------------------------------------------------------------------
    def attribution(self, last: Optional[int] = None) -> list[dict[str, Any]]:
        """The last ``last`` closed-window analysis documents (all
        retained windows when ``last`` is None)."""
        windows = list(self.windows)
        if last is not None:
            last = int(last)
            windows = windows[-last:] if last > 0 else []
        return windows

    def critical_paths(self, last: Optional[int] = None) -> list[dict[str, Any]]:
        """The last ``last`` path records (all retained when None)."""
        records = list(self.recent)
        if last is not None:
            last = int(last)
            records = records[-last:] if last > 0 else []
        return records


class XrayRecorder:
    """Per-Margo monitor assembling path records on the client side.

    Requires an attached :class:`ContinuousProfiler` (the spec enforces
    ``xray`` implies ``profiling``): the recorder shares its sampling
    decision, its cross-process phase stamps, and its window boundaries.
    """

    #: Same contract as the profiler: the runtime calls the hooks below
    #: only for requests stamped ``SAMPLE_STAMP != 0``.
    respects_profile_sampling = True

    def __init__(self, margo: Any) -> None:
        self.margo = margo
        self.kernel = margo.kernel
        profiler = margo.profiler
        plane = getattr(self.kernel, "xray_plane", None)
        if plane is None:
            # The first xray-enabled process creates the shared plane.
            plane = XrayPlane(self.kernel)
            self.kernel.xray_plane = plane
        self.plane = plane
        profiler._xray = self
        profiler.on_window_close.append(self._observe_window)

    def _observe_window(self, doc: dict[str, Any]) -> None:
        self.plane.close_window(doc["index"], doc["start"], doc["end"])

    # ------------------------------------------------------------------
    # monitor hooks (client side)
    # ------------------------------------------------------------------
    def on_forward_start(self, time: float, margo: Any, request: Any) -> None:
        setattr(request, EDGES_ATTR, [])

    def on_response_received(
        self, time: float, margo: Any, request: Any, response: Any, elapsed: float
    ) -> None:
        edges = getattr(request, EDGES_ATTR, None)
        if edges is None:
            return
        fwd_start = getattr(request, "_profile_fwd_start", None)
        sent = getattr(request, "_profile_sent_at", None)
        received = getattr(request, "_profile_received_at", None)
        ult_start = getattr(request, "_profile_ult_start_at", None)
        ult_end = getattr(request, "_profile_ult_end_at", None)
        if None in (fwd_start, sent, received, ult_start, ult_end):
            return  # peer not profiled: cross-process stamps missing
        client = self.margo.process.name
        server = request.dst_address.rsplit("/", 1)[-1]
        segments = [
            {
                "process": client,
                "pool": "",
                "phase": "client_queue",
                "duration": sent - fwd_start,
            },
            {
                "process": f"{client}->{server}",
                "pool": "wire",
                "phase": "network",
                "duration": received - sent,
            },
        ]
        sched_pool = ""
        blocked = 0.0
        waits = []
        for kind, name, duration in edges:
            if kind == "sched":
                # Only the dispatch wait is the "sched" segment; a
                # requeue after a lock/park wakeup is already inside
                # that edge's duration (waiters measure to re-run).
                if not sched_pool:
                    sched_pool = name
                continue
            blocked += duration
            prefix = "mutex" if kind == "lock" else "event"
            waits.append(
                {
                    "process": server,
                    "pool": f"{prefix}:{name}",
                    "phase": kind,
                    "duration": duration,
                }
            )
        segments.append(
            {
                "process": server,
                "pool": sched_pool,
                "phase": "sched",
                "duration": ult_start - received,
            }
        )
        segments.extend(waits)
        segments.append(
            {
                "process": server,
                "pool": sched_pool,
                "phase": "handler",
                "duration": max(0.0, (ult_end - ult_start) - blocked),
            }
        )
        segments.append(
            {
                "process": f"{server}->{client}",
                "pool": "wire",
                "phase": "respond",
                "duration": time - ult_end,
            }
        )
        self.plane.add_path(
            {
                "trace_id": request.trace_id,
                "span_id": request.span_id,
                "rpc": request.rpc_name,
                "provider": request.provider_id,
                "weight": getattr(request, SAMPLE_STAMP, 1),
                "client": client,
                "server": server,
                "start": fwd_start,
                "end": time,
                "total": time - fwd_start,
                "segments": segments,
            }
        )
