"""Fixed-memory rolling store of windowed profile rollups.

The continuous profiler accumulates observations into the *current*
window; at every window boundary (``k * window`` simulated seconds,
aligned to the simulation origin so boundaries are deterministic) the
window is closed, reduced to a compact rollup -- counts, sums, min/max,
and bucket-interpolated p50/p95/p99 -- and pushed into a bounded ring.
Memory is therefore fixed regardless of run length: ``history`` windows
of per-key aggregates, nothing per-request.

Everything here is plain arithmetic over simulated-time observations;
two runs with the same seed produce byte-identical ``to_json()``
documents (keys are strings, rendering sorts them).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from ..metrics import Histogram, MetricFamily

__all__ = ["PhaseAggregate", "WindowRollup", "ProfileStore", "quantile_from_buckets"]

#: The RPC phases recorded by the latency decomposition, in causal order.
PHASES = ("client_queue", "network", "server_queue", "handler", "respond", "total")


def quantile_from_buckets(
    q: float,
    buckets: tuple[float, ...],
    counts: list[int],
    lo: float,
    hi: float,
) -> float:
    """Estimate the ``q``-quantile from histogram bucket counts.

    Linear interpolation within the bucket that crosses the target rank,
    clamped to the observed ``[lo, hi]`` range so estimates never leave
    the data.  Deterministic: pure float arithmetic over fixed bounds.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    prev_bound = lo
    for bound, n in zip(buckets, counts[:-1]):
        upper = min(bound, hi)
        if n:
            cumulative += n
            if cumulative >= target:
                # Position of the target rank inside this bucket.
                fraction = 1.0 - (cumulative - target) / n
                value = prev_bound + fraction * max(0.0, upper - prev_bound)
                return min(max(value, lo), hi)
            prev_bound = max(prev_bound, upper)
    return hi  # target rank falls in the +inf bucket: report the max


#: The unregistered family every window aggregate belongs to.
_WINDOW_PHASES = MetricFamily("window_phase", "histogram")


class PhaseAggregate(Histogram):
    """One window's distribution summary for one (key, phase) series: a
    :class:`~repro.observability.metrics.Histogram` outside any
    registry, rendered with interpolated quantiles."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(_WINDOW_PHASES, ())

    def to_json(self) -> dict[str, Any]:
        lo = self.min or 0.0
        hi = self.max or 0.0
        return {
            "count": self.count,
            "sum": self.sum,
            "min": lo,
            "max": hi,
            "p50": quantile_from_buckets(0.50, self.buckets, self.bucket_counts, lo, hi),
            "p95": quantile_from_buckets(0.95, self.buckets, self.bucket_counts, lo, hi),
            "p99": quantile_from_buckets(0.99, self.buckets, self.bucket_counts, lo, hi),
        }


class WindowRollup:
    """Accumulator for one rollup window, reducible to a JSON document.

    Keys:

    * ``phases[(rpc_key, phase)]`` -- :class:`PhaseAggregate` of one
      decomposition phase for one ``"<rpc_name>/<provider_id>"`` series;
    * ``providers[provider_key]`` -- request count and payload bytes for
      one ``"<component>:<provider_id>"`` series (the load-estimator
      input);
    * ``pools`` / ``xstreams`` -- utilization samples taken at the
      closing boundary.
    """

    __slots__ = ("index", "start", "end", "phases", "providers", "pools", "xstreams")

    def __init__(self, index: int, start: float, end: float) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.phases: dict[tuple[str, str], PhaseAggregate] = {}
        self.providers: dict[str, dict[str, float]] = {}
        self.pools: dict[str, dict[str, float]] = {}
        self.xstreams: dict[str, dict[str, float]] = {}

    # -- accumulation --------------------------------------------------
    def observe_phase(self, rpc_key: str, phase: str, value: float) -> None:
        agg = self.phases.get((rpc_key, phase))
        if agg is None:
            agg = self.phases[(rpc_key, phase)] = PhaseAggregate()
        agg.observe(value)

    def _provider_entry(self, provider_key: str) -> dict[str, float]:
        entry = self.providers.get(provider_key)
        if entry is None:
            entry = self.providers[provider_key] = {
                "requests": 0.0, "bytes_in": 0.0, "bytes_out": 0.0,
                "errors": 0.0,
            }
        return entry

    def note_request(
        self, provider_key: str, bytes_in: int, weight: int = 1
    ) -> None:
        """``weight`` > 1 when the profiler samples every Nth request:
        each observed request stands for N, keeping rates unbiased."""
        entry = self._provider_entry(provider_key)
        entry["requests"] += weight
        entry["bytes_in"] += bytes_in * weight

    def note_response(
        self, provider_key: str, bytes_out: int, error: bool = False,
        weight: int = 1,
    ) -> None:
        entry = self._provider_entry(provider_key)
        entry["bytes_out"] += bytes_out * weight
        if error:
            entry["errors"] += weight

    # -- reduction -----------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        width = self.end - self.start
        rpc: dict[str, dict[str, Any]] = {}
        for (rpc_key, phase), agg in self.phases.items():
            rpc.setdefault(rpc_key, {})[phase] = agg.to_json()
        providers = {
            key: {
                "requests": int(entry["requests"]),
                "rate": entry["requests"] / width if width > 0 else 0.0,
                "bytes_in": int(entry["bytes_in"]),
                "bytes_out": int(entry["bytes_out"]),
                "errors": int(entry.get("errors", 0)),
            }
            for key, entry in self.providers.items()
        }
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "rpc": rpc,
            "providers": providers,
            "pools": self.pools,
            "xstreams": self.xstreams,
        }


class ProfileStore:
    """A bounded ring of closed :class:`WindowRollup` documents.

    ``current`` is the open window; :meth:`roll` closes it at a boundary
    and opens the next.  The ring (``deque(maxlen=history)``) is the
    bounded-state pattern for monitoring callbacks: old windows fall off
    the far end, so a profiler left running for the whole life of a
    service never grows (tests/test_observer_memory.py).
    """

    def __init__(self, window: float, history: int) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if history <= 0:
            raise ValueError(f"history must be positive, got {history}")
        self.window = window
        self.history = history
        self.windows: deque[dict[str, Any]] = deque(maxlen=history)
        self.current: Optional[WindowRollup] = None

    def window_index(self, now: float) -> int:
        """The index of the window containing simulated time ``now``."""
        return int(now // self.window)

    def open_window(self, index: int) -> WindowRollup:
        start = index * self.window
        self.current = WindowRollup(index, start, start + self.window)
        return self.current

    def close_current(
        self,
        pools: dict[str, dict[str, float]],
        xstreams: dict[str, dict[str, float]],
    ) -> dict[str, Any]:
        """Close the open window: attach the boundary utilization
        samples, reduce it into the ring, and open the next window.

        The profiler calls this from its boundary tick; observations
        that race the tick inside the same simulated instant stay with
        the closing window, which is deterministic (kernel event order
        is a pure function of the seed)."""
        current = self.current
        if current is None:
            raise RuntimeError("no open window (store not started)")
        current.pools = pools
        current.xstreams = xstreams
        doc = current.to_json()
        self.windows.append(doc)
        self.open_window(current.index + 1)
        return doc

    # -- queries -------------------------------------------------------
    def closed_windows(self, last: Optional[int] = None) -> list[dict[str, Any]]:
        windows = list(self.windows)
        if last is not None:
            if last < 0:
                raise ValueError(f"'last' must be >= 0, got {last}")
            windows = windows[-last:] if last else []
        return windows

    def latest(self) -> Optional[dict[str, Any]]:
        return self.windows[-1] if self.windows else None

    def to_json(self, last: Optional[int] = None) -> dict[str, Any]:
        return {
            "window": self.window,
            "history": self.history,
            "windows": self.closed_windows(last),
        }
