"""mochi-health: SLO engine, the SWIM-fed health plane, and the
always-on flight recorder.

Two switches, nothing to wire:

* ``cluster.enable_health()`` attaches the :class:`HealthPlane`.  SSG
  groups, Raft nodes and SLO engines find it at
  ``network.health_plane`` and report to it, whenever they were built;
  a :class:`~repro.core.controller.ServiceController` subscribes its
  decisions itself.
* ``ObservabilitySpec.slos`` declares objectives; the process's
  profiler feeds each closed window to its :class:`SLOEngine`.

Read it through Bedrock queries over ``$__health__`` /
``$__incidents__`` / ``$__slo__``, ``tools.health_report``, or
``repro health {crash,slo}`` (scenarios in :mod:`repro.scenarios`).
"""

from .incidents import Incident, IncidentLog
from .plane import HealthPlane
from .recorder import EVENT_CATEGORIES, FlightRecorder
from .registry import HEALTH_STATES, HealthRegistry
from .slo import OBJECTIVES, SLOEngine, SLOSpec

__all__ = [
    "EVENT_CATEGORIES",
    "FlightRecorder",
    "HEALTH_STATES",
    "HealthPlane",
    "HealthRegistry",
    "Incident",
    "IncidentLog",
    "OBJECTIVES",
    "SLOEngine",
    "SLOSpec",
]
