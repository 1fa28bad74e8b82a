"""Periodic state sampler.

The paper (section 4): the monitoring infrastructure "periodically
tracks the number of in-flight RPCs and the sizes of user-level thread
pools so as to provide users with a complete view of what is happening
inside a Mochi process at any time."

:class:`PeriodicSampler` observes a Margo instance on a fixed simulated
period.  It samples from a kernel timer -- modelling Margo's dedicated
monitoring thread -- so that a saturated execution stream cannot starve
the observer (which would bias the samples toward idle moments).
The samples are a ring: a sampler left running for the life of a
process holds the newest :data:`SAMPLES` of them.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from ..margo.runtime import MargoInstance
from .statistics import RunningStats

__all__ = ["PeriodicSampler"]

#: Samples the ring keeps.
SAMPLES = 1024


class PeriodicSampler:
    """Samples ``margo.snapshot()`` every ``period`` simulated seconds."""

    def __init__(self, margo: MargoInstance, period: float = 1.0) -> None:
        if period <= 0:
            raise ValueError(f"sampler period must be positive, got {period}")
        self.margo = margo
        self.period = period
        self.samples: deque[dict[str, Any]] = deque(maxlen=SAMPLES)
        self._running = False

    def start(self) -> None:
        if self._running:
            raise RuntimeError("sampler already running")
        self._running = True
        self._tick()

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running or self.margo.finalized:
            self._running = False
            return
        self.samples.append(self.margo.snapshot())
        self.margo.kernel.schedule(self.period, self._tick)

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    @property
    def latest(self) -> Optional[dict[str, Any]]:
        return self.samples[-1] if self.samples else None

    def pool_size_stats(self, pool_name: str) -> RunningStats:
        """Aggregate the sampled queue length of one pool."""
        stats = RunningStats()
        for sample in self.samples:
            size = sample["pools"].get(pool_name)
            if size is not None:
                stats.update(float(size))
        return stats

    def inflight_stats(self, direction: str = "incoming") -> RunningStats:
        if direction not in ("incoming", "outgoing"):
            raise ValueError("direction must be 'incoming' or 'outgoing'")
        key = f"inflight_{direction}"
        stats = RunningStats()
        for sample in self.samples:
            stats.update(float(sample[key]))
        return stats
