"""Argobots-style pools of ready ULTs.

A pool (paper Fig. 2) holds runnable ULTs; one or more execution streams
pull from it.  Pools are named and created from JSON fragments such as
``{"name": "MyPoolX", "type": "fifo_wait", "access": "mpmc"}``
(paper Listing 2).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from ..analysis.race import hooks as _race
from .config import PoolSpec
from .errors import ConfigError
from .ult import READY, ULT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .xstream import XStream

__all__ = ["Pool", "POOL_TYPES", "POOL_ACCESS_MODES"]

POOL_TYPES = ("fifo", "fifo_wait", "prio_wait")
POOL_ACCESS_MODES = ("mpmc", "mpsc", "spmc", "spsc", "private")


class Pool:
    """A FIFO queue of ready ULTs with push/pop statistics.

    The ``size`` property (number of queued ULTs) is what the paper's
    monitoring samples periodically ("the sizes of user-level thread
    pools", section 4).
    """

    def __init__(self, name: str, kind: str = "fifo_wait", access: str = "mpmc") -> None:
        if not name:
            raise ConfigError("pool name must be non-empty")
        if kind not in POOL_TYPES:
            raise ConfigError(f"unknown pool type {kind!r} (expected one of {POOL_TYPES})")
        if access not in POOL_ACCESS_MODES:
            raise ConfigError(
                f"unknown pool access mode {access!r} (expected one of {POOL_ACCESS_MODES})"
            )
        self.name = name
        self.kind = kind
        self.access = access
        self._queue: deque[ULT] = deque()
        self._watchers: list["XStream"] = []
        # Precomputed pool->xstream dispatch route (P1), resolved once
        # per attach/detach: ``_wake1`` is the sole watcher (the common
        # case); ``_wakeN`` the multi-watcher tuple, in watcher order.
        self._wake1: Optional["XStream"] = None
        self._wakeN: tuple["XStream", ...] = ()
        # Cumulative counter for monitoring/benchmarks.
        self.total_pushed = 0
        # Continuous profiler hook (None when profiling is off, so the
        # hot path pays a single identity check -- same discipline as the
        # race-detector gates below).
        self._profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ULTs currently waiting in the pool."""
        return len(self._queue)

    @property
    def total_popped(self) -> int:
        """ULTs taken out so far; the one taker is ``XStream._drive``."""
        return self.total_pushed - len(self._queue)

    # mochi-lint: hotpath
    def push(self, ult: ULT) -> None:
        ult.pool = self
        ult.state = READY
        self._queue.append(ult)
        self.total_pushed += 1
        if _race.ENABLED:
            _race.note_push(self, ult)
        prof = self._profiler
        if prof is not None and prof._sched_on:
            # Sched-latency sampling: stamp the push time while the
            # profiler's duty-cycle burst is open.  Outside a burst the
            # stamp is left untouched -- it is always None here (pop
            # clears it after observing; ContinuousProfiler.stop sweeps
            # queued ULTs), so this stays two attribute loads on the
            # hottest call site in the system.
            ult.profile_enqueued_at = prof.kernel.now
        # Wake the serving xstream(s) over the precomputed route
        # (XStream.notify, inlined): an idle stream gets its one callback
        # posted; a busy or already posted one finds the ULT by itself.
        wake = self._wake1
        if wake is not None:
            if wake._idle:
                wake._idle = False
                wake.kernel.post(0.0, wake._run)
        else:
            for wake in self._wakeN:
                if wake._idle:
                    wake._idle = False
                    wake.kernel.post(0.0, wake._run)

    # ------------------------------------------------------------------
    def attach_xstream(self, xstream: "XStream") -> None:
        if xstream not in self._watchers:
            self._watchers.append(xstream)
            self._rebuild_route()

    def detach_xstream(self, xstream: "XStream") -> None:
        if xstream in self._watchers:
            self._watchers.remove(xstream)
            self._rebuild_route()

    def _rebuild_route(self) -> None:
        """Re-resolve the push wakeup route (once per config change)."""
        watchers = self._watchers
        if len(watchers) == 1:
            self._wake1 = watchers[0]
            self._wakeN = ()
        else:
            self._wake1 = None
            self._wakeN = tuple(watchers)

    @property
    def xstreams(self) -> tuple["XStream", ...]:
        """Execution streams currently serving this pool."""
        return tuple(self._watchers)

    # ------------------------------------------------------------------
    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Pool":
        """Build a pool from a Listing-2-style JSON fragment."""
        spec = PoolSpec.from_json(doc)
        return cls(spec.name, spec.kind, spec.access)

    def to_json(self) -> dict[str, Any]:
        return {"name": self.name, "type": self.kind, "access": self.access}
