"""Incidents: faults correlated with detection and recovery.

An :class:`Incident` is the health plane's unit of post-hoc analysis:
it is opened when a fault is injected (or an SLO pages), accumulates the
correlated observations -- SWIM suspicion/confirmation, Raft role
changes, REMI recovery spans -- and closes when the service has healed.
The two latencies the paper's resilience story needs fall out directly:

* **detection latency** -- fault injection to SWIM's confirmed-dead
  transition (suspicion latency is kept separately);
* **MTTR** -- fault injection to the service controller's recovery
  completing (replacement provisioned and providers restored).

Incident ids are dense (``INC-1``, ``INC-2``, ...) in open order; the
kernel's event order is seed-pure, so the incident log of two identical
runs is byte-identical -- the E2E acceptance test of ISSUE 6.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

__all__ = ["Incident", "IncidentLog"]

#: Correlated events per incident are capped: a flapping cluster must
#: not grow one incident without bound.  Overflow is counted.
MAX_EVENTS_PER_INCIDENT = 64
#: Incidents the log keeps, open or closed.
MAX_INCIDENTS = 128


class Incident:
    """One tracked failure, from injection (or breach) to recovery."""

    __slots__ = (
        "incident_id", "kind", "target", "opened_at", "attrs", "events",
        "events_dropped", "suspect_latency", "detection_latency",
        "closed_at", "mttr", "resolution",
    )

    def __init__(
        self,
        incident_id: str,
        kind: str,
        target: str,
        opened_at: float,
        attrs: Optional[dict[str, Any]] = None,
    ) -> None:
        self.incident_id = incident_id
        self.kind = kind  # "crash" | "slo"
        self.target = target
        self.opened_at = opened_at
        self.attrs = dict(sorted((attrs or {}).items()))
        self.events: list[dict[str, Any]] = []
        self.events_dropped = 0
        #: fault -> first SWIM *suspect* observation of the target.
        self.suspect_latency: Optional[float] = None
        #: fault -> SWIM *dead* confirmation of the target.
        self.detection_latency: Optional[float] = None
        self.closed_at: Optional[float] = None
        self.mttr: Optional[float] = None
        self.resolution: Optional[str] = None

    @property
    def open(self) -> bool:
        return self.closed_at is None

    def attach(self, time: float, kind: str, detail: dict[str, Any]) -> None:
        if len(self.events) >= MAX_EVENTS_PER_INCIDENT:
            self.events_dropped += 1
            return
        self.events.append({"time": time, "kind": kind, **dict(sorted(detail.items()))})

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.incident_id,
            "kind": self.kind,
            "target": self.target,
            "status": "open" if self.open else "closed",
            "opened_at": self.opened_at,
            "attrs": self.attrs,
            "suspect_latency": self.suspect_latency,
            "detection_latency": self.detection_latency,
            "closed_at": self.closed_at,
            "mttr": self.mttr,
            "resolution": self.resolution,
            "events": [dict(e) for e in self.events],
            "events_dropped": self.events_dropped,
        }


class IncidentLog:
    """Bounded store of incidents with open/close bookkeeping."""

    def __init__(self, kernel: Any) -> None:
        self.kernel = kernel
        self.incidents: deque[Incident] = deque(maxlen=MAX_INCIDENTS)
        self._opened = 0
        #: open incidents by target (one open incident per target: a
        #: second fault on the same target folds into the first).
        self._open_by_target: dict[str, Incident] = {}

    # ------------------------------------------------------------------
    def open(
        self, kind: str, target: str, **attrs: Any
    ) -> Incident:
        existing = self._open_by_target.get(target)
        if existing is not None:
            existing.attach(self.kernel.now, "refault", {"kind": kind, **attrs})
            return existing
        self._opened += 1
        incident = Incident(
            f"INC-{self._opened}", kind, target, self.kernel.now, attrs
        )
        evicted = self.incidents[0] if len(self.incidents) == self.incidents.maxlen else None
        self.incidents.append(incident)
        if evicted is not None and evicted.open:
            self._open_by_target.pop(evicted.target, None)
        self._open_by_target[target] = incident
        return incident

    def open_incidents(self) -> list[Incident]:
        return [i for i in self.incidents if i.open]

    # ------------------------------------------------------------------
    def note_detection(self, target: str, stage: str) -> None:
        """Record a SWIM detection stage ("suspect" or "dead") for the
        target's open incident, stamping first-observation latencies."""
        incident = self._open_by_target.get(target)
        if incident is None:
            return
        now = self.kernel.now
        latency = now - incident.opened_at
        if stage == "suspect" and incident.suspect_latency is None:
            incident.suspect_latency = latency
            incident.attach(now, "detection", {"stage": "suspect", "latency": latency})
        elif stage == "dead" and incident.detection_latency is None:
            incident.detection_latency = latency
            incident.attach(now, "detection", {"stage": "dead", "latency": latency})

    def attach_all(self, kind: str, detail: dict[str, Any]) -> None:
        """Attach a cluster-scoped event (election, partition) to every
        open incident -- correlated context, not per-target evidence."""
        now = self.kernel.now
        for incident in self.open_incidents():
            incident.attach(now, kind, detail)

    def close(self, target: str, resolution: str, **attrs: Any) -> Optional[Incident]:
        incident = self._open_by_target.pop(target, None)
        if incident is None:
            return None
        now = self.kernel.now
        incident.closed_at = now
        incident.mttr = now - incident.opened_at
        incident.resolution = resolution
        if attrs:
            incident.attach(now, "resolution", attrs)
        return incident

    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "opened": self._opened,
            "open": len(self._open_by_target),
            "incidents": [i.to_json() for i in self.incidents],
        }
