"""The health registry: one authoritative state per target.

A target is a process name (the unit SWIM watches and REMI recovers);
its state is one of the ordered ladder

    healthy < degraded < suspect < dead

``degraded`` is the SLO engine's contribution (objectives burning but
the process responsive), ``suspect``/``dead`` come from the failure
detectors.  The registry keeps the current state map plus a bounded
transition log, and notifies subscribers on every change -- this is what
the :class:`~repro.core.controller.ServiceController` consults
before migrating shards onto a node (never onto suspect/dead).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

__all__ = ["HealthRegistry", "HEALTH_STATES"]

#: The state ladder, worst-last.  Order matters: ``severity`` compares
#: by index, and reports sort targets by (severity, name).
HEALTH_STATES = ("healthy", "degraded", "suspect", "dead")


class HealthRegistry:
    """Current health state per target + bounded transition history."""

    def __init__(self, kernel: Any, max_transitions: int = 256) -> None:
        self.kernel = kernel
        self.states: dict[str, str] = {}
        self.transitions: deque[dict[str, Any]] = deque(maxlen=max(1, max_transitions))
        #: called with each transition document after it is recorded.
        self.on_transition: list[Callable[[dict[str, Any]], None]] = []

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
        transition = {
            "time": self.kernel.now,
            "target": target,
            "from": previous,
            "to": state,
            "source": source,
        }
        self.transitions.append(transition)
        for callback in list(self.on_transition):
            callback(transition)
        return True

    def forget(self, target: str) -> None:
        self.states.pop(target, None)

    # ------------------------------------------------------------------
    def unhealthy(self) -> dict[str, str]:
        """Targets not currently healthy (sorted for determinism)."""
        return {
            target: state
            for target, state in sorted(self.states.items())
            if state != "healthy"
        }

    def to_json(self) -> dict[str, Any]:
        return {
            "states": dict(sorted(self.states.items())),
            "transitions": [dict(t) for t in self.transitions],
        }
