"""The health registry: one authoritative state per target.

A target is a process name (the unit SWIM watches and REMI recovers);
its state is one of the ordered ladder

    healthy < degraded < suspect < dead

``degraded`` is the SLO engine's contribution (objectives burning but
the process responsive), ``suspect``/``dead`` come from SWIM, the one
failure detector.  The registry keeps the current state map and writes
every change into the flight recorder as a ``health`` event -- the
map is what the :class:`~repro.core.controller.ServiceController`
consults before migrating shards onto a node (never onto suspect/dead).
"""

from __future__ import annotations

from typing import Any

__all__ = ["HealthRegistry", "HEALTH_STATES"]

#: The state ladder, worst-last.  Order matters: ``severity`` compares
#: by index, and reports sort targets by (severity, name).
HEALTH_STATES = ("healthy", "degraded", "suspect", "dead")


class HealthRegistry:
    """Current health state per target; transitions go to ``recorder``."""

    def __init__(self, recorder: Any) -> None:
        self.recorder = recorder
        self.states: dict[str, str] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def severity(state: str) -> int:
        return HEALTH_STATES.index(state)

    def state_of(self, target: str) -> str:
        """Unknown targets are healthy: absence of evidence is the
        steady state, exactly as in SWIM's membership table."""
        return self.states.get(target, "healthy")

    def is_placeable(self, target: str) -> bool:
        """May the reconfiguration controller migrate shards *onto*
        this target?  Degraded is allowed (the move may be the cure);
        suspect and dead are not."""
        return self.severity(self.state_of(target)) < self.severity("suspect")

    # ------------------------------------------------------------------
    def observe(self, target: str, state: str, source: str) -> bool:
        """Record an observation; returns True if the state changed."""
        if state not in HEALTH_STATES:
            raise ValueError(f"unknown health state {state!r}")
        previous = self.state_of(target)
        if previous == state:
            return False
        self.states[target] = state
        self.recorder.record(
            "health", state, target, previous=previous, source=source
        )
        return True

    # ------------------------------------------------------------------
    def unhealthy(self) -> dict[str, str]:
        """Targets not currently healthy (sorted for determinism)."""
        return {
            target: state
            for target, state in sorted(self.states.items())
            if state != "healthy"
        }

    def to_json(self) -> dict[str, Any]:
        return {"states": dict(sorted(self.states.items()))}
