"""The xray plane: the kernel-shared sink of path records and windows.

There is no xray monitor.  A :class:`ContinuousProfiler` built with
``xray=True`` (the ``"xray": true`` observability key) gets or creates
the one :class:`XrayPlane` of its kernel (``kernel.xray_plane``) and
records on its own sampled requests:

* its ``on_forward_start`` hook attaches an empty ``_xray_edges`` list
  to the request.  The list's *existence* is the only gate the edge
  sources check, so sampled-out requests cost the hot paths nothing;
* server-side hot paths append ``(kind, name, duration)`` edges:
  ``("sched", pool, wait)`` from the profiler's pool-pop hook,
  ``("lock", mutex, wait)`` from a contended ``UltMutex.acquire``,
  ``("park", event, wait)`` from ``UltEvent.wait``.  The request object
  crosses the simulated wire by reference, so the client sees them;
* when the response arrives with all five phase stamps the client's
  profiler hands
  :func:`~.critical_path.path_record` to :meth:`XrayPlane.add_path`.

At each window boundary the profiler calls :meth:`XrayPlane.close_window`,
which runs tail-latency attribution (:func:`~.attribution.attribute_paths`)
and the what-if engine (:func:`~.whatif.what_if`) over the window's
records and appends the result to a bounded ring.  Bedrock queries read
``recent`` and ``windows`` as ``$__xray__``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .attribution import attribute_paths
from .whatif import what_if

__all__ = ["XrayPlane"]

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
        # Late: the profiler imports this package to build the plane.
        from ..profile.profiler import HISTORY

        self.kernel = kernel
        #: Most recent complete path records (survives window closes).
        self.recent: deque[dict[str, Any]] = deque(maxlen=MAX_PATHS)
        #: Closed-window analysis documents.
        self.windows: deque[dict[str, Any]] = deque(maxlen=HISTORY)
        self._window_paths: list[dict[str, Any]] = []
        self._window_drops = 0
        self._closed_through = -1

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
